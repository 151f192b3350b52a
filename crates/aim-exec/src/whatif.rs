//! Memoized what-if costing — the advisor's hot-path cache.
//!
//! Every index advisor in this workspace is dominated by what-if optimizer
//! calls (§III-F, Eqs. 7–8): the same `(statement, hypothetical
//! configuration)` pair is re-planned by the ranking benefit loop, the
//! marginal-attribution loop, the maintenance loop, and again on the next
//! tuning pass. [`WhatIfCache`] memoizes the numbers a caller actually
//! consumes — estimated cost, estimated result rows, and *which*
//! hypothetical indexes the plan used — keyed by:
//!
//! * the database [`instance id`](aim_storage::Database::instance_id) and
//!   [`stats epoch`](aim_storage::Database::stats_epoch), so any data
//!   mutation, index change or statistics drift invalidates entries without
//!   any explicit flush protocol,
//! * a fingerprint of the statement's printed form (literals included —
//!   unlike the monitor's normalized fingerprint, two constants with
//!   different selectivities must not share a cost), and
//! * the [`HypoConfig::canonical_key`] (order-insensitive) combined with a
//!   fingerprint of the [`CostModel`].
//!
//! The cache is sharded (`Mutex<HashMap>` per shard) so parallel ranking
//! workers contend only on colliding shards, and it is safe to share one
//! process-global instance ([`global`]) across advisors: epoch keying makes
//! stale hits impossible, clones get fresh instance ids, and a capacity
//! bound keeps long-lived processes from accumulating dead epochs.

use crate::cost::CostModel;
use crate::error::ExecError;
use crate::hypothetical::HypoConfig;
use crate::planner::{plan_select, IndexChoice, Plan, Planner};
use aim_sql::ast::Select;
use aim_storage::Database;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const SHARDS: usize = 16;
/// Per-shard entry bound; a full shard is cleared wholesale (entries are
/// cheap to recompute and epoch churn retires them anyway).
const SHARD_CAPACITY: usize = 1 << 16;

/// FNV-1a accumulator usable as a `fmt::Write` sink, so statements hash
/// straight off their `Display` impl without an intermediate `String`.
struct FnvWriter(u64);

impl FnvWriter {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// Fingerprint of a SELECT's printed form (literals included).
pub fn select_fingerprint(select: &Select) -> u64 {
    let mut w = FnvWriter::new();
    let _ = write!(w, "{select}");
    w.0
}

/// Fingerprint of the cost model's debug form (every constant + switch).
fn cm_fingerprint(cm: &CostModel) -> u64 {
    let mut w = FnvWriter::new();
    let _ = write!(w, "{cm:?}");
    w.0
}

fn context_key(config: &HypoConfig, cm: &CostModel) -> u64 {
    cm_fingerprint(cm) ^ config.canonical_key().rotate_left(17)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    db: u64,
    epoch: u64,
    stmt: u64,
    ctx: u64,
}

impl Key {
    fn shard(&self) -> usize {
        // Mix so sequential statement hashes spread across shards.
        let mut x = self.stmt ^ self.ctx.rotate_left(32) ^ self.db ^ self.epoch;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (x >> 59) as usize % SHARDS
    }
}

/// What a memoized what-if call remembers: everything the advisor pipeline
/// reads off a plan without re-planning.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfEntry {
    /// Estimated plan cost (`Plan::est_cost`).
    pub cost: f64,
    /// Estimated result rows (`Plan::result_rows`) — DML costing needs it.
    pub rows: f64,
    /// [`HypotheticalIndex::def_key`](crate::HypotheticalIndex::def_key)s
    /// of the hypothetical indexes the plan used, in plan order.
    pub used_hypos: Vec<u64>,
}

/// Point-in-time cache effectiveness numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WhatIfCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

impl WhatIfCacheStats {
    /// Hit fraction in `[0, 1]`; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded memo table for what-if optimizer calls.
pub struct WhatIfCache {
    shards: Vec<Mutex<HashMap<Key, WhatIfEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: AtomicBool,
}

impl Default for WhatIfCache {
    fn default() -> Self {
        Self::new()
    }
}

impl WhatIfCache {
    /// Creates an empty, enabled cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turns memoization on/off. Disabled, [`WhatIfCache::eval_select`]
    /// plans every call — the pre-cache sequential behaviour, kept for
    /// benchmarking and bisection.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// True when memoization is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drops every entry and zeroes the hit/miss counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Current effectiveness numbers.
    pub fn stats(&self) -> WhatIfCacheStats {
        WhatIfCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
                .sum(),
        }
    }

    fn lookup(&self, key: &Key) -> Option<WhatIfEntry> {
        let found = self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                aim_telemetry::metrics::WHATIF_CACHE_HITS.incr();
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                aim_telemetry::metrics::WHATIF_CACHE_MISSES.incr();
            }
        }
        found
    }

    fn insert(&self, key: Key, entry: WhatIfEntry) {
        let mut shard = self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shard.len() >= SHARD_CAPACITY {
            shard.clear();
        }
        shard.insert(key, entry);
    }

    /// Memoized what-if evaluation of a SELECT under `config`: returns the
    /// cached entry, or plans via [`plan_select`] and remembers the result.
    pub fn eval_select(
        &self,
        db: &Database,
        select: &Select,
        config: &HypoConfig,
        cm: &CostModel,
    ) -> Result<WhatIfEntry, ExecError> {
        // Gate before any cache interaction: an injected what-if failure
        // must neither poison the memo table nor skew hit/miss counters.
        if let Some(aim_storage::fault::FaultKind::Fail) =
            aim_storage::fault::hit("exec.whatif")
        {
            return Err(ExecError::FaultInjected {
                site: "exec.whatif".to_string(),
            });
        }
        if !self.is_enabled() {
            return plan_to_entry(db, select, config, cm);
        }
        let key = Key {
            db: db.instance_id(),
            epoch: db.stats_epoch(),
            stmt: select_fingerprint(select),
            ctx: context_key(config, cm),
        };
        if let Some(hit) = self.lookup(&key) {
            return Ok(hit);
        }
        let entry = plan_to_entry(db, select, config, cm)?;
        self.insert(key, entry.clone());
        Ok(entry)
    }

    /// Batched what-if evaluation: prices `select` under every config in
    /// `configs` in one shared planning pass, returning per-config results
    /// in input order, bit-identical to sequential [`Self::eval_select`]
    /// calls.
    ///
    /// Semantics preserved per config: the `exec.whatif` fault site fires
    /// once per config (so chaos schedules see the same hit sequence),
    /// cache hits/misses are accounted per config, and each miss is
    /// memoized under its own key. One accounting nuance: lookups run
    /// against the cache state at batch entry, so duplicate canonical keys
    /// *within* one batch count as misses (they still share a plan, not a
    /// planner pass). What is shared across the batch:
    ///
    /// * statement + cost-model fingerprints are computed once,
    /// * one [`Planner`] carries binding, predicate analysis and the
    ///   memoized probe-source / selectivity / base-access-path state
    ///   across configs ([`Planner::set_config`]),
    /// * configs whose hypothetical indexes project identically onto the
    ///   statement's referenced tables share a single plan — their costs
    ///   and used-hypo sets are provably identical, since planning only
    ///   ever consults per-referenced-table hypotheticals and reports
    ///   position-independent definition keys.
    pub fn eval_select_batch(
        &self,
        db: &Database,
        select: &Select,
        configs: &[&HypoConfig],
        cm: &CostModel,
    ) -> Vec<Result<WhatIfEntry, ExecError>> {
        use aim_telemetry::metrics::{
            SELECTION_BATCHES, SELECTION_BATCH_BINDING_REUSE, SELECTION_BATCH_PLAN_REUSE,
            WHATIF_CALLS,
        };
        if configs.is_empty() {
            return Vec::new();
        }
        SELECTION_BATCHES.incr();
        aim_telemetry::metrics::histogram_record("selection.batch.size", configs.len() as f64);

        let enabled = self.is_enabled();
        let mut out: Vec<Option<Result<WhatIfEntry, ExecError>>> = vec![None; configs.len()];
        let mut misses: Vec<(usize, Option<Key>)> = Vec::new();
        let stmt_fp = select_fingerprint(select);
        let cm_fp = cm_fingerprint(cm);
        let db_id = db.instance_id();
        let epoch = db.stats_epoch();

        for (i, cfg) in configs.iter().enumerate() {
            // Same per-config gate as eval_select: an injected what-if
            // failure must neither poison the memo table nor skew counters.
            if let Some(aim_storage::fault::FaultKind::Fail) =
                aim_storage::fault::hit("exec.whatif")
            {
                out[i] = Some(Err(ExecError::FaultInjected {
                    site: "exec.whatif".to_string(),
                }));
                continue;
            }
            if enabled {
                let key = Key {
                    db: db_id,
                    epoch,
                    stmt: stmt_fp,
                    ctx: cm_fp ^ cfg.canonical_key().rotate_left(17),
                };
                if let Some(hit) = self.lookup(&key) {
                    out[i] = Some(Ok(hit));
                    continue;
                }
                misses.push((i, Some(key)));
            } else {
                misses.push((i, None));
            }
        }

        if !misses.is_empty() {
            let mut planner = match Planner::new(db, select, configs[misses[0].0], cm) {
                Ok(p) => p,
                Err(e) => {
                    // Binding/analysis errors are config-independent: every
                    // sequential call would fail identically.
                    for (i, _) in &misses {
                        out[*i] = Some(Err(e.clone()));
                    }
                    let v: Vec<_> = out.into_iter().map(|r| r.expect("slot filled")).collect();
                    return v;
                }
            };
            let referenced: BTreeSet<String> = planner
                .binder
                .tables()
                .iter()
                .map(|t| t.table.clone())
                .collect();
            // Plans shared across configs with the same relevant projection.
            let mut groups: HashMap<(bool, Vec<u64>), WhatIfEntry> = HashMap::new();
            let mut planned = 0usize;
            for (i, key) in misses {
                let cfg = configs[i];
                let mut proj: Vec<u64> = cfg
                    .indexes
                    .iter()
                    .filter(|h| referenced.contains(&h.def.table))
                    .map(|h| h.def_key())
                    .collect();
                proj.sort_unstable();
                proj.dedup();
                let gkey = (cfg.include_materialized, proj);
                let entry = match groups.get(&gkey) {
                    Some(e) => {
                        SELECTION_BATCH_PLAN_REUSE.incr();
                        e.clone()
                    }
                    None => {
                        planner.set_config(cfg);
                        if planned > 0 {
                            SELECTION_BATCH_BINDING_REUSE.incr();
                        }
                        planned += 1;
                        let plan = {
                            let _span = aim_telemetry::span("exec.whatif");
                            WHATIF_CALLS.incr();
                            match planner.plan() {
                                Ok(p) => p,
                                Err(e) => {
                                    out[i] = Some(Err(e));
                                    continue;
                                }
                            }
                        };
                        aim_telemetry::metrics::histogram_record(
                            "exec.whatif_cost",
                            plan.est_cost,
                        );
                        let entry = entry_from_plan(&plan, cfg);
                        groups.insert(gkey, entry.clone());
                        entry
                    }
                };
                if let Some(key) = key {
                    self.insert(key, entry.clone());
                }
                out[i] = Some(Ok(entry));
            }
        }

        out.into_iter().map(|r| r.expect("slot filled")).collect()
    }
}

fn plan_to_entry(
    db: &Database,
    select: &Select,
    config: &HypoConfig,
    cm: &CostModel,
) -> Result<WhatIfEntry, ExecError> {
    let plan = plan_select(db, select, config, cm)?;
    Ok(entry_from_plan(&plan, config))
}

/// Everything the advisor pipeline reads off a plan, with used
/// hypotheticals reported by position-independent definition key.
fn entry_from_plan(plan: &Plan, config: &HypoConfig) -> WhatIfEntry {
    let used_hypos = plan
        .used_indexes()
        .iter()
        .filter_map(|(_, choice)| match choice {
            IndexChoice::Hypothetical(k) => Some(config.indexes[*k].def_key()),
            _ => None,
        })
        .collect();
    WhatIfEntry {
        cost: plan.est_cost,
        rows: plan.result_rows,
        used_hypos,
    }
}

/// The process-global cache every advisor path shares by default. Epoch +
/// instance-id keying makes sharing safe; [`WhatIfCache::set_enabled`] and
/// [`WhatIfCache::clear`] give benchmarks a controlled baseline.
pub fn global() -> &'static WhatIfCache {
    static GLOBAL: OnceLock<WhatIfCache> = OnceLock::new();
    GLOBAL.get_or_init(WhatIfCache::new)
}

/// Memoized estimated cost of a SELECT under a what-if configuration,
/// through the [`global`] cache.
pub fn whatif_cost(
    db: &Database,
    select: &Select,
    config: &HypoConfig,
    cm: &CostModel,
) -> Result<f64, ExecError> {
    Ok(global().eval_select(db, select, config, cm)?.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypothetical::HypotheticalIndex;
    use aim_sql::ast::Statement;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, Database, IndexDef, IoStats, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..3000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 60)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn select(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn repeated_evaluation_hits_and_matches() {
        let db = db();
        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::only(Vec::new());
        let first = cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        let second = cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_literals_do_not_share_entries() {
        let db = db();
        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let cfg = HypoConfig::only(Vec::new());
        cache
            .eval_select(&db, &select("SELECT id FROM t WHERE a = 7"), &cfg, &cm)
            .unwrap();
        cache
            .eval_select(&db, &select("SELECT id FROM t WHERE a = 8"), &cfg, &cm)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn config_key_is_order_insensitive() {
        let db = db();
        let ha = HypotheticalIndex::build(&db, IndexDef::new("ha", "t", vec!["a".into()]))
            .unwrap();
        let hid = HypotheticalIndex::build(&db, IndexDef::new("hid", "t", vec!["id".into()]))
            .unwrap();
        let fwd = HypoConfig::only(vec![ha.clone(), hid.clone()]);
        let rev = HypoConfig::only(vec![hid, ha]);
        assert_eq!(fwd.canonical_key(), rev.canonical_key());

        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let a = cache.eval_select(&db, &s, &fwd, &cm).unwrap();
        let b = cache.eval_select(&db, &s, &rev, &cm).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(cache.stats().hits, 1, "reordered config must hit");
    }

    #[test]
    fn cached_entry_reports_used_hypotheticals() {
        let db = db();
        let h = HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()]))
            .unwrap();
        let def_key = h.def_key();
        let cfg = HypoConfig::only(vec![h]);
        let cache = WhatIfCache::new();
        let entry = cache
            .eval_select(
                &db,
                &select("SELECT id FROM t WHERE a = 7"),
                &cfg,
                &CostModel::default(),
            )
            .unwrap();
        assert_eq!(entry.used_hypos, vec![def_key]);
    }

    #[test]
    fn stats_epoch_bump_invalidates_entries() {
        let mut db = db();
        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::only(Vec::new());
        let before = cache.eval_select(&db, &s, &cfg, &cm).unwrap();

        // DML growth + re-ANALYZE: the epoch moves, the cached cost must
        // not be reused, and the fresh cost reflects the bigger table.
        let mut io = IoStats::new();
        let e0 = db.stats_epoch();
        for i in 3000..9000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 60)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        assert!(db.stats_epoch() > e0);

        let hits_before = cache.stats().hits;
        let after = cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        assert_eq!(cache.stats().hits, hits_before, "stale entry must miss");
        assert!(
            after.cost > before.cost,
            "tripled table must cost more: {} vs {}",
            after.cost,
            before.cost
        );
    }

    // One test covers both exec-layer fault sites: fault state is
    // process-global, so sequencing them here avoids cross-test races
    // without a shared lock.
    #[test]
    fn injected_faults_propagate_and_never_touch_the_cache() {
        use aim_storage::fault::{self, FaultPlan};

        let mut db = db();
        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::only(Vec::new());

        // exec.whatif: fails before any cache interaction.
        fault::arm(FaultPlan::new(1).fail("exec.whatif", 0, 1));
        let err = cache.eval_select(&db, &s, &cfg, &cm).unwrap_err();
        assert!(err.is_injected(), "unexpected error class: {err}");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (0, 0, 0),
            "injected fault must not touch counters or entries"
        );
        // Limit exhausted: the next call plans normally and memoizes.
        cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        assert_eq!(cache.stats().entries, 1);
        fault::disarm();

        // exec.execute: both the statement path and the direct SELECT
        // path consult the same site exactly once per call.
        let engine = crate::executor::Engine::default();
        fault::arm(FaultPlan::new(1).fail("exec.execute", 0, 2));
        let stmt = parse_statement("SELECT id FROM t WHERE a = 7").unwrap();
        let err = engine.execute(&mut db, &stmt).unwrap_err();
        assert!(err.is_injected());
        let err = engine.execute_select(&db, &s).unwrap_err();
        assert!(err.is_injected());
        engine.execute(&mut db, &stmt).unwrap();
        let log = fault::disarm();
        assert_eq!(log.len(), 2, "execute fired twice: {log:?}");
    }

    #[test]
    fn batched_evaluation_is_bit_identical_to_sequential() {
        let db = db();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let ha = HypotheticalIndex::build(&db, IndexDef::new("ha", "t", vec!["a".into()]))
            .unwrap();
        let hid = HypotheticalIndex::build(&db, IndexDef::new("hid", "t", vec!["id".into()]))
            .unwrap();
        let cfgs = [
            HypoConfig::only(Vec::new()),
            HypoConfig::only(vec![ha.clone()]),
            HypoConfig::only(vec![hid.clone()]),
            HypoConfig::only(vec![ha.clone(), hid.clone()]),
            HypoConfig::overlay(vec![ha.clone()]),
            // Same canonical key as the pair above: shares its plan.
            HypoConfig::only(vec![hid, ha]),
        ];
        let refs: Vec<&HypoConfig> = cfgs.iter().collect();

        // Uncached planning: batched results must be bit-identical to
        // per-config sequential evaluation.
        let seq_cache = WhatIfCache::new();
        seq_cache.set_enabled(false);
        let seq: Vec<WhatIfEntry> = refs
            .iter()
            .map(|c| seq_cache.eval_select(&db, &s, c, &cm).unwrap())
            .collect();
        let batch_cache = WhatIfCache::new();
        batch_cache.set_enabled(false);
        let got = batch_cache.eval_select_batch(&db, &s, &refs, &cm);
        assert_eq!(got.len(), seq.len());
        for (g, e) in got.iter().zip(&seq) {
            let g = g.as_ref().unwrap();
            assert_eq!(g.cost.to_bits(), e.cost.to_bits());
            assert_eq!(g.rows.to_bits(), e.rows.to_bits());
            assert_eq!(g.used_hypos, e.used_hypos);
        }
        let stats = batch_cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));

        // Cached: every config misses against the batch-entry snapshot,
        // then a repeat batch hits for all of them with equal entries.
        let cache = WhatIfCache::new();
        let first = cache.eval_select_batch(&db, &s, &refs, &cm);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 6));
        let second = cache.eval_select_batch(&db, &s, &refs, &cm);
        assert_eq!(cache.stats().hits, 6);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn batched_evaluation_hits_fault_site_per_config() {
        use aim_storage::fault::{self, FaultPlan};
        let db = db();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfgs: Vec<HypoConfig> = (0..4).map(|_| HypoConfig::only(Vec::new())).collect();
        let refs: Vec<&HypoConfig> = cfgs.iter().collect();
        let cache = WhatIfCache::new();

        // Skip 2 hits, fail 1: exactly the third config must error, and
        // the injected failure must not be cached for it.
        fault::arm(FaultPlan::new(1).fail("exec.whatif", 2, 1));
        let got = cache.eval_select_batch(&db, &s, &refs, &cm);
        let log = fault::disarm();
        assert_eq!(log.len(), 1, "fault fired once: {log:?}");
        assert!(got[0].is_ok() && got[1].is_ok() && got[3].is_ok());
        assert!(got[2].as_ref().unwrap_err().is_injected());
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let db = db();
        let cache = WhatIfCache::new();
        cache.set_enabled(false);
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::only(Vec::new());
        cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }
}
