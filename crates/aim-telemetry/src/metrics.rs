//! Counters, gauges and histograms — flat and dimensional.
//!
//! The well-known instruments of the advisor pipeline are static atomic
//! [`Counter`]s (zero contention, no allocation). Ad-hoc counters, gauges
//! and log₂-bucket histograms live in a `Mutex`-guarded registry keyed by
//! name. Everything is a no-op while telemetry is disabled, and
//! [`snapshot`] captures the whole lot for reports and JSON artifacts.
//!
//! On top of the flat registry sits a *dimensional* one: every instrument
//! can carry a small bounded label set (`tenant`, `phase`, `backend`, …).
//! Labeled series live in a lock-sharded registry keyed by the instrument
//! name plus interned label values, so the per-observation cost is one
//! shard lock and one map probe. A hard cardinality cap bounds memory:
//! once [`series_cap`] distinct series exist, new series deterministically
//! fold their `tenant` label into `"__other__"` and bump
//! `telemetry.series_dropped`. A thread-local [`TelemetryScope`]
//! (tenant + phase) makes the labeling implicit: while a scope is active,
//! every flat instrument call on that thread also records a labeled twin,
//! so call sites never change. Snapshots render labeled series as
//! `name{k="v",…}` strings (stable key order, escaped values), which lets
//! the timeseries ring, artifacts and diffing work on them unchanged.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Const-constructible so counters can be statics.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (no-op while telemetry is disabled). Under an active
    /// [`TelemetryScope`] the observation also lands in the scope-labeled
    /// twin series, so the flat value stays the all-tenant total.
    pub fn add(&self, n: u64) {
        if crate::is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
            if let Some(sc) = current_scope() {
                scoped_counter_add(self.name, sc, n);
            }
        }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` to the flat value only, ignoring any active scope. Used
    /// by the labeled registry's own health accounting so a fold can
    /// never recurse into another fold.
    fn add_unscoped(&self, n: u64) {
        if crate::is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn clear(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------ taxonomy
// The fixed instrument set wired through the workspace. Names are
// `layer.instrument`; layers mirror the crates.

/// Optimizer what-if invocations (advisory plans + DML maintenance costing).
pub static WHATIF_CALLS: Counter = Counter::new("exec.whatif_calls");
/// What-if evaluations answered from the memo cache (optimizer calls saved).
pub static WHATIF_CACHE_HITS: Counter = Counter::new("exec.whatif_cache_hits");
/// What-if evaluations that missed the memo cache and were planned.
pub static WHATIF_CACHE_MISSES: Counter = Counter::new("exec.whatif_cache_misses");
/// All planner invocations, advisory and execution-bound.
pub static PLANS_EVALUATED: Counter = Counter::new("exec.plans_evaluated");
/// Statements run by the executor.
pub static STATEMENTS_EXECUTED: Counter = Counter::new("exec.statements");
/// Rows examined by the executor.
pub static ROWS_READ: Counter = Counter::new("exec.rows_read");
/// Pages read by the executor.
pub static PAGES_READ: Counter = Counter::new("exec.pages_read");
/// B+-tree descents performed by the executor.
pub static INDEX_SEEKS: Counter = Counter::new("exec.seeks");
/// Executions ingested by the workload monitor.
pub static MONITOR_RECORDS: Counter = Counter::new("monitor.records");
/// Candidate indexes produced by structural generation.
pub static CANDIDATES_GENERATED: Counter = Counter::new("aim.candidates_generated");
/// Pairwise partial-order merges that succeeded.
pub static PO_MERGES: Counter = Counter::new("aim.partial_order_merges");
/// Clone-validation rounds executed.
pub static VALIDATION_ROUNDS: Counter = Counter::new("aim.validation_rounds");
/// Indexes materialized on production by tuning passes.
pub static INDEXES_CREATED: Counter = Counter::new("aim.indexes_created");
/// Candidates rejected (validation or materialization).
pub static INDEXES_REJECTED: Counter = Counter::new("aim.indexes_rejected");
/// Regressions flagged by the continuous detector.
pub static REGRESSIONS_DETECTED: Counter = Counter::new("aim.regressions_detected");
/// Phase retries after a transient (injected) failure.
pub static TUNING_RETRIES: Counter = Counter::new("aim.retries");
/// Passes that finished in a degraded mode (sequential fallback or a
/// shrunken validation sample) after repeated transient failures.
pub static DEGRADED_PASSES: Counter = Counter::new("aim.degraded_passes");
/// Passes aborted (deadline, cancellation, or retries exhausted) and
/// rolled back.
pub static PASSES_ABORTED: Counter = Counter::new("aim.passes_aborted");
/// Batched what-if evaluations (one per `eval_select_batch` call).
pub static SELECTION_BATCHES: Counter = Counter::new("selection.batch.count");
/// Batch members that reused the batch's shared binding / predicate /
/// selectivity derivation instead of re-deriving it from scratch
/// (planner passes beyond a batch's first).
pub static SELECTION_BATCH_BINDING_REUSE: Counter =
    Counter::new("selection.batch.binding_reuse");
/// Batch members served by an identical-projection plan from the same
/// batch without any planner pass at all.
pub static SELECTION_BATCH_PLAN_REUSE: Counter = Counter::new("selection.batch.plan_reuse");
/// Events evicted from the journal ring buffer before anyone read them.
pub static JOURNAL_DROPPED: Counter = Counter::new("telemetry.journal_dropped");
/// Time-series windows closed by [`crate::timeseries::tick`].
pub static TIMESERIES_WINDOWS: Counter = Counter::new("timeseries.windows");
/// Worker span roots stitched into a parent profile by
/// [`crate::trace::TraceContext::stitch`].
pub static TRACE_SPANS_STITCHED: Counter = Counter::new("trace.spans_stitched");
/// Tenants whose tuning pass completed inside a fleet run.
pub static FLEET_SHARDS_TUNED: Counter = Counter::new("fleet.shards_tuned");
/// Tenants granted more than the uniform per-shard budget share by the
/// fleet-level knapsack allocation.
pub static FLEET_BUDGET_TRANSFERS: Counter = Counter::new("fleet.budget_transfers");
/// Cross-shard seed partial orders handed from hot to cold tenants.
pub static FLEET_SEEDED_ORDERS: Counter = Counter::new("fleet.seeded_orders");
/// Tenant tuning passes that failed inside a fleet run (the fleet
/// continues; the failure is isolated to the tenant).
pub static FLEET_TENANT_FAILURES: Counter = Counter::new("fleet.tenant_failures");
/// Labeled observations whose new series would exceed the cardinality cap
/// and were folded into the `tenant="__other__"` bucket instead.
pub static SERIES_DROPPED: Counter = Counter::new("telemetry.series_dropped");

static BUILTIN: &[&Counter] = &[
    &WHATIF_CALLS,
    &WHATIF_CACHE_HITS,
    &WHATIF_CACHE_MISSES,
    &PLANS_EVALUATED,
    &STATEMENTS_EXECUTED,
    &ROWS_READ,
    &PAGES_READ,
    &INDEX_SEEKS,
    &MONITOR_RECORDS,
    &CANDIDATES_GENERATED,
    &PO_MERGES,
    &VALIDATION_ROUNDS,
    &INDEXES_CREATED,
    &INDEXES_REJECTED,
    &REGRESSIONS_DETECTED,
    &TUNING_RETRIES,
    &DEGRADED_PASSES,
    &PASSES_ABORTED,
    &SELECTION_BATCHES,
    &SELECTION_BATCH_BINDING_REUSE,
    &SELECTION_BATCH_PLAN_REUSE,
    &JOURNAL_DROPPED,
    &TIMESERIES_WINDOWS,
    &TRACE_SPANS_STITCHED,
    &FLEET_SHARDS_TUNED,
    &FLEET_BUDGET_TRANSFERS,
    &FLEET_SEEDED_ORDERS,
    &FLEET_TENANT_FAILURES,
    &SERIES_DROPPED,
];

/// The fallback HELP line for names nobody registered a description for.
const HELP_FALLBACK: &str = "AIM telemetry instrument (no description registered).";

/// Whether `name` (labels stripped) has a registered, non-generic HELP
/// description. The exposition well-formedness test uses this to catch
/// new instruments that ship without documentation.
pub fn has_help(name: &str) -> bool {
    help_for(name) != HELP_FALLBACK
}

/// One-line description of an instrument, for the Prometheus `# HELP`
/// exposition. Covers the fixed taxonomy and the well-known registry
/// names; anything else gets a generic line (the exposition format
/// requires *some* HELP text, not a registry). Labeled series names
/// (`name{k="v"}`) resolve through their base name.
pub fn help_for(name: &str) -> &'static str {
    match series_base(name) {
        "exec.whatif_calls" => "Optimizer what-if invocations (advisory plans + DML costing).",
        "exec.whatif_cache_hits" => "What-if evaluations answered from the memo cache.",
        "exec.whatif_cache_misses" => "What-if evaluations that missed the memo cache.",
        "exec.plans_evaluated" => "Planner invocations, advisory and execution-bound.",
        "exec.statements" => "Statements run by the executor.",
        "exec.rows_read" => "Rows examined by the executor.",
        "exec.pages_read" => "Pages read by the executor.",
        "exec.seeks" => "B+-tree descents performed by the executor.",
        "exec.select_cost" => "Estimated cost of executed SELECT statements (latency proxy).",
        "monitor.records" => "Executions ingested by the workload monitor.",
        "aim.candidates_generated" => "Candidate indexes produced by structural generation.",
        "aim.partial_order_merges" => "Pairwise partial-order merges that succeeded.",
        "aim.validation_rounds" => "Clone-validation rounds executed.",
        "aim.indexes_created" => "Indexes materialized on production by tuning passes.",
        "aim.indexes_rejected" => "Candidates rejected during validation or materialization.",
        "aim.regressions_detected" => "Regressions flagged by the continuous detector.",
        "aim.retries" => "Phase retries after a transient failure.",
        "aim.degraded_passes" => "Passes that finished in a degraded mode.",
        "aim.passes_aborted" => "Passes aborted and rolled back.",
        "selection.batch.count" => "Batched what-if evaluations.",
        "selection.batch.binding_reuse" => "Batch members reusing the shared binding derivation.",
        "selection.batch.plan_reuse" => "Batch members served by an identical-projection plan.",
        "telemetry.journal_dropped" => "Events evicted from the journal ring before being read.",
        "timeseries.windows" => "Time-series windows closed by timeseries ticks.",
        "trace.spans_stitched" => "Worker span roots stitched into a parent profile.",
        "fleet.shards_tuned" => "Tenant tuning passes completed inside fleet runs.",
        "fleet.budget_transfers" => "Tenants granted more than the uniform budget share.",
        "fleet.seeded_orders" => "Cross-shard seed partial orders handed to cold tenants.",
        "fleet.tenant_failures" => "Tenant tuning passes that failed inside fleet runs.",
        "fleet.tenant_duration" => "Per-tenant tuning wall clock inside fleet runs (ms).",
        "fleet.budget_granted_bytes" => "Storage budget granted to a tenant by fleet allocation.",
        "fleet.budget_used_bytes" => "Secondary-index bytes actually built for a tenant.",
        "telemetry.series_dropped" => {
            "Labeled observations folded into tenant=__other__ by the cardinality cap."
        }
        "telemetry.series_active" => "Distinct labeled series currently tracked.",
        "sentinel.state" => "Latency sentinel state (0=idle, 1=armed, 2=regressed).",
        "sentinel.rollbacks" => "Index rollbacks ordered by the latency sentinel.",
        "slo.rules" => "Declarative SLO rules currently registered.",
        "slo.firing" => "SLO rules currently firing on multi-window burn rate.",
        "slo.evaluations" => "SLO evaluation sweeps over the timeseries ring.",
        "aim.candidate_width" => "Column width of generated candidate indexes.",
        "selection.batch.size" => {
            "Hypothetical index configurations costed per batched what-if call."
        }
        "baselines.cost_cache_hits" => "Baseline-advisor cost evaluations served from cache.",
        "db.index_bytes" => "Estimated bytes across all indexes on the tuned database.",
        "db.secondary_index_bytes" => "Estimated bytes across secondary indexes (budget basis).",
        "exec.whatif_cost" => "Estimated cost of what-if-priced statements.",
        "monitor.selected_queries" => "Statements selected by the monitor for tuning windows.",
        "monitor.window_queries" => "Statements observed in the current monitor window.",
        "storage.bp.hit" => "Buffer-pool page hits.",
        "storage.bp.miss" => "Buffer-pool page misses (disk reads).",
        "storage.bp.evict" => "Buffer-pool page evictions.",
        "storage.wal.bytes" => "Bytes appended to the write-ahead log.",
        "storage.wal.fsyncs" => "WAL fsync batches issued.",
        _ => HELP_FALLBACK,
    }
}

// ------------------------------------------------------------ registry

const HISTOGRAM_BUCKETS: usize = 40;

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `buckets[i]` counts values in `(2^(i-1), 2^i]`; bucket 0 is `<= 1`.
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = if v <= 1.0 {
            0
        } else {
            (v.log2().ceil() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// `(inclusive upper bound, count)` for non-empty buckets.
    pub buckets: Vec<(f64, u64)>,
    /// Median estimate interpolated from the log₂ buckets.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the log₂ bucket holding the target rank. The true value lies
    /// somewhere in `(upper/2, upper]`, so the estimate is off by at most
    /// one bucket width; the observed `min`/`max` clamp the extremes.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(upper, n) in &self.buckets {
            let before = cum as f64;
            cum += n;
            if cum as f64 >= target {
                let lower = if upper <= 1.0 { 0.0 } else { upper / 2.0 };
                let frac = ((target - before) / n as f64).clamp(0.0, 1.0);
                let est = lower + frac * (upper - lower);
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn fill_quantiles(mut self) -> Self {
        self.p50 = self.quantile(0.50);
        self.p90 = self.quantile(0.90);
        self.p99 = self.quantile(0.99);
        self
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

/// Adds to an ad-hoc named counter in the registry. Under an active
/// [`TelemetryScope`] the observation also lands in the scope-labeled
/// twin series.
pub fn counter_add(name: &'static str, n: u64) {
    if crate::is_enabled() {
        with_registry(|r| *r.counters.entry(name).or_insert(0) += n);
        if let Some(sc) = current_scope() {
            scoped_counter_add(name, sc, n);
        }
    }
}

/// Sets a gauge to an instantaneous value (scope-labeled twin included).
pub fn gauge_set(name: &'static str, v: i64) {
    if crate::is_enabled() {
        with_registry(|r| {
            r.gauges.insert(name, v);
        });
        if let Some(sc) = current_scope() {
            scoped_gauge_set(name, sc, v);
        }
    }
}

/// Records one observation into a log₂-bucket histogram (scope-labeled
/// twin included).
pub fn histogram_record(name: &'static str, v: f64) {
    if crate::is_enabled() {
        with_registry(|r| r.histograms.entry(name).or_default().record(v));
        if let Some(sc) = current_scope() {
            scoped_histogram_record(name, sc, v);
        }
    }
}

// ------------------------------------------------- dimensional registry

/// Interned label-value handle. Values are interned once (at scope
/// creation or on an explicit labeled call) so hot-path series keys
/// compare as integers, never strings.
type Sym = u32;

#[derive(Default)]
struct Interner {
    map: BTreeMap<String, Sym>,
    values: Vec<String>,
}

static INTERNER: Mutex<Option<Interner>> = Mutex::new(None);

fn with_interner<R>(f: impl FnOnce(&mut Interner) -> R) -> R {
    let mut guard = INTERNER.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Interner::default))
}

fn intern(value: &str) -> Sym {
    with_interner(|int| match int.map.get(value) {
        Some(&s) => s,
        None => {
            let s = int.values.len() as Sym;
            int.values.push(value.to_string());
            int.map.insert(value.to_string(), s);
            s
        }
    })
}

/// The tenant bucket that over-cap series fold into.
pub const OTHER_TENANT: &str = "__other__";

/// Default hard cap on distinct labeled series across all shards.
pub const DEFAULT_SERIES_CAP: usize = 512;

static SERIES_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_SERIES_CAP);
static SERIES_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Current hard cap on distinct labeled series.
pub fn series_cap() -> usize {
    SERIES_CAP.load(Ordering::Relaxed)
}

/// Sets the cardinality cap. Existing series are never evicted; only the
/// admission of *new* series consults the cap.
pub fn set_series_cap(cap: usize) {
    SERIES_CAP.store(cap, Ordering::Relaxed);
}

/// Distinct labeled series currently tracked (including fold buckets).
pub fn series_count() -> usize {
    SERIES_COUNT.load(Ordering::Relaxed)
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: &'static str,
    /// `(label key, interned value)`, sorted by label key.
    labels: Vec<(&'static str, Sym)>,
}

#[derive(Default)]
struct LabelShard {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, i64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

const LABEL_SHARDS: usize = 8;

static LSHARDS: [Mutex<Option<LabelShard>>; LABEL_SHARDS] =
    [const { Mutex::new(None) }; LABEL_SHARDS];

fn shard_of(name: &str, labels: &[(&'static str, Sym)]) -> usize {
    // FNV-1a over the name bytes, label keys and value symbols.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in name.bytes() {
        eat(b);
    }
    for (k, v) in labels {
        for b in k.bytes() {
            eat(b);
        }
        for b in v.to_le_bytes() {
            eat(b);
        }
    }
    (h as usize) % LABEL_SHARDS
}

#[derive(Clone, Copy)]
enum SeriesKind {
    Counter,
    Gauge,
    Histogram,
}

impl LabelShard {
    fn has(&self, kind: SeriesKind, key: &SeriesKey) -> bool {
        match kind {
            SeriesKind::Counter => self.counters.contains_key(key),
            SeriesKind::Gauge => self.gauges.contains_key(key),
            SeriesKind::Histogram => self.histograms.contains_key(key),
        }
    }
}

/// Claims one cap slot for a new series; `false` means the cap is full
/// and the caller must fold.
fn try_claim_series_slot() -> bool {
    let cap = SERIES_CAP.load(Ordering::Relaxed);
    let prev = SERIES_COUNT.fetch_add(1, Ordering::Relaxed);
    if prev < cap {
        true
    } else {
        SERIES_COUNT.fetch_sub(1, Ordering::Relaxed);
        false
    }
}

/// Core labeled write: update-in-place when the series exists, admit it
/// when the cap allows, otherwise fold the `tenant` label into
/// [`OTHER_TENANT`] and apply there. At most one shard lock is held at a
/// time (the fold re-probes under its own lock), so shard order can never
/// deadlock. Fold buckets are always admitted — their cardinality is
/// bounded by the non-tenant label space — and each folded observation
/// bumps `telemetry.series_dropped`.
fn labeled_update(
    name: &'static str,
    labels: &[(&'static str, Sym)],
    kind: SeriesKind,
    apply: impl FnOnce(&mut LabelShard, SeriesKey),
) {
    debug_assert!(labels.windows(2).all(|w| w[0].0 <= w[1].0), "labels sorted");
    let key = SeriesKey {
        name,
        labels: labels.to_vec(),
    };
    {
        let idx = shard_of(name, labels);
        let mut guard = LSHARDS[idx].lock().unwrap_or_else(|e| e.into_inner());
        let shard = guard.get_or_insert_with(LabelShard::default);
        if shard.has(kind, &key) || try_claim_series_slot() {
            apply(shard, key);
            return;
        }
    }
    // Over the cap: fold deterministically into tenant="__other__".
    SERIES_DROPPED.add_unscoped(1);
    let other = intern(OTHER_TENANT);
    let mut folded = key.labels;
    match folded.iter_mut().find(|(k, _)| *k == "tenant") {
        Some(slot) => slot.1 = other,
        None => {
            folded.push(("tenant", other));
            folded.sort_by_key(|&(k, _)| k);
        }
    }
    let idx = shard_of(name, &folded);
    let fkey = SeriesKey {
        name,
        labels: folded,
    };
    let mut guard = LSHARDS[idx].lock().unwrap_or_else(|e| e.into_inner());
    let shard = guard.get_or_insert_with(LabelShard::default);
    if !shard.has(kind, &fkey) {
        SERIES_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    apply(shard, fkey);
}

fn series_counter_add(name: &'static str, labels: &[(&'static str, Sym)], n: u64) {
    labeled_update(name, labels, SeriesKind::Counter, |shard, key| {
        *shard.counters.entry(key).or_insert(0) += n;
    });
}

fn series_gauge_set(name: &'static str, labels: &[(&'static str, Sym)], v: i64) {
    labeled_update(name, labels, SeriesKind::Gauge, |shard, key| {
        shard.gauges.insert(key, v);
    });
}

fn series_histogram_record(name: &'static str, labels: &[(&'static str, Sym)], v: f64) {
    labeled_update(name, labels, SeriesKind::Histogram, |shard, key| {
        shard.histograms.entry(key).or_default().record(v);
    });
}

fn intern_labels(labels: &[(&'static str, &str)]) -> Vec<(&'static str, Sym)> {
    let mut out: Vec<(&'static str, Sym)> =
        labels.iter().map(|&(k, v)| (k, intern(v))).collect();
    out.sort_by_key(|&(k, _)| k);
    out
}

/// Adds to a labeled counter series (no-op while telemetry is disabled).
pub fn counter_add_labeled(name: &'static str, labels: &[(&'static str, &str)], n: u64) {
    if crate::is_enabled() {
        series_counter_add(name, &intern_labels(labels), n);
    }
}

/// Sets a labeled gauge series to an instantaneous value.
pub fn gauge_set_labeled(name: &'static str, labels: &[(&'static str, &str)], v: i64) {
    if crate::is_enabled() {
        series_gauge_set(name, &intern_labels(labels), v);
    }
}

// ------------------------------------------------------- telemetry scope

/// Thread-local scope payload: interned tenant + optional phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScopeData {
    tenant: Sym,
    phase: Option<Sym>,
}

impl ScopeData {
    /// Implicit label set, sorted by label key (`"phase" < "tenant"`).
    fn label_array(self) -> ([(&'static str, Sym); 2], usize) {
        match self.phase {
            Some(p) => ([("phase", p), ("tenant", self.tenant)], 2),
            None => ([("tenant", self.tenant), ("tenant", self.tenant)], 1),
        }
    }
}

thread_local! {
    static SCOPE: Cell<Option<ScopeData>> = const { Cell::new(None) };
}

#[inline]
fn current_scope() -> Option<ScopeData> {
    SCOPE.with(|s| s.get())
}

fn scoped_counter_add(name: &'static str, sc: ScopeData, n: u64) {
    let (arr, len) = sc.label_array();
    series_counter_add(name, &arr[..len], n);
}

fn scoped_gauge_set(name: &'static str, sc: ScopeData, v: i64) {
    let (arr, len) = sc.label_array();
    series_gauge_set(name, &arr[..len], v);
}

fn scoped_histogram_record(name: &'static str, sc: ScopeData, v: f64) {
    let (arr, len) = sc.label_array();
    series_histogram_record(name, &arr[..len], v);
}

/// RAII guard that scopes every flat instrument call on this thread to a
/// tenant (and optionally a phase): each observation also lands in a
/// `name{tenant="…"}` labeled twin. Scopes nest; dropping restores the
/// previous scope. Creating a scope while telemetry is disabled is free
/// (no interning, no TLS write).
#[derive(Debug)]
pub struct TelemetryScope {
    prev: Option<ScopeData>,
    active: bool,
    /// TLS restoration is thread-affine; keep the guard on its thread.
    _not_send: PhantomData<*const ()>,
}

impl TelemetryScope {
    /// Enters a tenant scope.
    pub fn enter(tenant: &str) -> Self {
        Self::enter_inner(tenant, None)
    }

    /// Enters a tenant scope with a phase label (`probe`, `tune`, …).
    pub fn enter_phase(tenant: &str, phase: &str) -> Self {
        Self::enter_inner(tenant, Some(phase))
    }

    fn enter_inner(tenant: &str, phase: Option<&str>) -> Self {
        if !crate::is_enabled() {
            return Self {
                prev: None,
                active: false,
                _not_send: PhantomData,
            };
        }
        let data = ScopeData {
            tenant: intern(tenant),
            phase: phase.map(intern),
        };
        let prev = SCOPE.with(|s| s.replace(Some(data)));
        Self {
            prev,
            active: true,
            _not_send: PhantomData,
        }
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        if self.active {
            SCOPE.with(|s| s.set(self.prev));
        }
    }
}

/// Enters a tenant scope (see [`TelemetryScope`]).
pub fn scope(tenant: &str) -> TelemetryScope {
    TelemetryScope::enter(tenant)
}

/// Enters a tenant+phase scope (see [`TelemetryScope`]).
pub fn scope_phase(tenant: &str, phase: &str) -> TelemetryScope {
    TelemetryScope::enter_phase(tenant, phase)
}

/// The tenant of the active scope on this thread, if any.
pub fn current_tenant() -> Option<String> {
    let sc = current_scope()?;
    with_interner(|int| int.values.get(sc.tenant as usize).cloned())
}

// ------------------------------------------------------ series encoding

/// Escapes a label value per Prometheus exposition format 0.0.4:
/// `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Encodes a labeled series name as `name{k="v",…}` with label keys in
/// sorted order and values escaped. No labels → the bare name.
pub fn encode_series(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_by_key(|&(k, _)| k);
    let mut out = String::with_capacity(name.len() + 16 * sorted.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// The base instrument name of a (possibly labeled) series name.
pub fn series_base(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// Parses an encoded series name back into `(base, labels)`, un-escaping
/// label values. Malformed label blobs yield the whole string as the base
/// with no labels.
pub fn parse_series(encoded: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = encoded.find('{') else {
        return (encoded.to_string(), Vec::new());
    };
    let base = encoded[..brace].to_string();
    let blob = &encoded[brace + 1..];
    let mut labels = Vec::new();
    let mut chars = blob.chars().peekable();
    loop {
        match chars.peek() {
            Some('}') | None => break,
            Some(',') => {
                chars.next();
                continue;
            }
            _ => {}
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return (encoded.to_string(), Vec::new());
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(esc) => value.push(esc),
                    None => return (encoded.to_string(), Vec::new()),
                },
                '"' => {
                    closed = true;
                    break;
                }
                _ => value.push(c),
            }
        }
        if !closed {
            return (encoded.to_string(), Vec::new());
        }
        labels.push((key, value));
    }
    (base, labels)
}

/// The `tenant` label of an encoded series name, if present.
pub fn series_tenant(encoded: &str) -> Option<String> {
    let (_, labels) = parse_series(encoded);
    labels.into_iter().find(|(k, _)| k == "tenant").map(|(_, v)| v)
}

/// Point-in-time view of every instrument.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name → value; builtin counters first, registry after.
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Captures all counters, gauges and histograms.
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    for c in BUILTIN {
        out.counters.push((c.name().to_string(), c.get()));
    }
    with_registry(|r| {
        for (name, v) in &r.counters {
            out.counters.push((name.to_string(), *v));
        }
        for (name, v) in &r.gauges {
            out.gauges.push((name.to_string(), *v));
        }
        for (name, h) in &r.histograms {
            out.histograms.push((name.to_string(), histogram_to_snapshot(h)));
        }
    });
    append_labeled(&mut out);
    out
}

fn histogram_to_snapshot(h: &Histogram) -> HistogramSnapshot {
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(i, c)| ((1u64 << i) as f64, *c))
        .collect();
    HistogramSnapshot {
        count: h.count,
        sum: h.sum,
        min: h.min,
        max: h.max,
        buckets,
        p50: 0.0,
        p90: 0.0,
        p99: 0.0,
    }
    .fill_quantiles()
}

/// Drains every label shard into encoded `name{k="v"}` entries, appended
/// after the flat entries in sorted-name order. Shard locks and the
/// interner lock are never held together.
fn append_labeled(out: &mut Snapshot) {
    let mut counters: Vec<(SeriesKey, u64)> = Vec::new();
    let mut gauges: Vec<(SeriesKey, i64)> = Vec::new();
    let mut histograms: Vec<(SeriesKey, HistogramSnapshot)> = Vec::new();
    for shard in &LSHARDS {
        let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let Some(shard) = guard.as_ref() else { continue };
        counters.extend(shard.counters.iter().map(|(k, v)| (k.clone(), *v)));
        gauges.extend(shard.gauges.iter().map(|(k, v)| (k.clone(), *v)));
        histograms.extend(
            shard
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), histogram_to_snapshot(h))),
        );
    }
    if counters.is_empty() && gauges.is_empty() && histograms.is_empty() {
        return;
    }
    let encode = |int: &mut Interner, key: &SeriesKey| -> String {
        let resolved: Vec<(&str, &str)> = key
            .labels
            .iter()
            .map(|&(k, v)| {
                let val = int.values.get(v as usize).map(String::as_str).unwrap_or("");
                (k, val)
            })
            .collect();
        encode_series(key.name, &resolved)
    };
    with_interner(|int| {
        let mut enc_counters: Vec<(String, u64)> = counters
            .iter()
            .map(|(k, v)| (encode(int, k), *v))
            .collect();
        let mut enc_gauges: Vec<(String, i64)> =
            gauges.iter().map(|(k, v)| (encode(int, k), *v)).collect();
        let mut enc_histograms: Vec<(String, HistogramSnapshot)> = histograms
            .iter()
            .map(|(k, h)| (encode(int, k), h.clone()))
            .collect();
        enc_counters.sort_by(|a, b| a.0.cmp(&b.0));
        enc_gauges.sort_by(|a, b| a.0.cmp(&b.0));
        enc_histograms.sort_by(|a, b| a.0.cmp(&b.0));
        out.counters.extend(enc_counters);
        out.gauges.extend(enc_gauges);
        out.histograms.extend(enc_histograms);
    });
}

/// Zeroes all instruments, drops every labeled series, clears the label
/// interner and restores the default cardinality cap.
pub fn reset() {
    for c in BUILTIN {
        c.clear();
    }
    with_registry(|r| *r = Registry::default());
    for shard in &LSHARDS {
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        *guard = None;
    }
    with_interner(|int| *int = Interner::default());
    SERIES_COUNT.store(0, Ordering::Relaxed);
    SERIES_CAP.store(DEFAULT_SERIES_CAP, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        WHATIF_CALLS.add(5);
        counter_add("custom.hits", 2);
        gauge_set("custom.depth", -3);
        histogram_record("custom.cost", 0.5);
        histogram_record("custom.cost", 3.0);
        histogram_record("custom.cost", 3000.0);
        crate::disable();

        let s = snapshot();
        assert_eq!(s.counter("exec.whatif_calls"), Some(5));
        assert_eq!(s.counter("custom.hits"), Some(2));
        assert_eq!(s.gauges, vec![("custom.depth".to_string(), -3)]);
        let (name, h) = &s.histograms[0];
        assert_eq!(name, "custom.cost");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 3000.0);
        // 0.5 → bucket ≤1; 3.0 → ≤4; 3000 → ≤4096.
        assert_eq!(h.buckets, vec![(1.0, 1), (4.0, 1), (4096.0, 1)]);

        crate::reset();
        assert_eq!(snapshot().counter("exec.whatif_calls"), Some(0));
        assert!(snapshot().histograms.is_empty());
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        // 100 observations spread over three decades.
        for i in 1..=100 {
            histogram_record("q.cost", i as f64);
        }
        crate::disable();

        let s = snapshot();
        let (_, h) = &s.histograms[0];
        assert_eq!(h.count, 100);
        // Quantiles are monotone, within [min, max], and roughly placed:
        // the p50 of 1..=100 must land in the (32, 64] bucket.
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99);
        assert!(h.p50 >= h.min && h.p99 <= h.max);
        assert!(h.p50 > 32.0 && h.p50 <= 64.0, "p50 = {}", h.p50);
        assert!(h.p99 > 64.0 && h.p99 <= 100.0, "p99 = {}", h.p99);
        // Degenerate histograms stay finite.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
        crate::reset();
    }

    #[test]
    fn scope_labels_flat_instruments_and_preserves_totals() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        {
            let _t = scope("acme");
            WHATIF_CALLS.add(3);
            counter_add("custom.hits", 2);
            histogram_record("custom.cost", 8.0);
            gauge_set("custom.depth", 7);
            {
                let _p = scope_phase("acme", "probe");
                assert_eq!(current_tenant().as_deref(), Some("acme"));
                counter_add("custom.hits", 1);
            }
            // Inner scope restored to the outer one, not cleared.
            assert_eq!(current_tenant().as_deref(), Some("acme"));
        }
        assert_eq!(current_tenant(), None);
        counter_add("custom.hits", 5); // unscoped
        crate::disable();

        let s = snapshot();
        // Flat values are the all-tenant totals.
        assert_eq!(s.counter("exec.whatif_calls"), Some(3));
        assert_eq!(s.counter("custom.hits"), Some(8));
        // Labeled twins carry the scoped share.
        assert_eq!(s.counter("exec.whatif_calls{tenant=\"acme\"}"), Some(3));
        assert_eq!(s.counter("custom.hits{tenant=\"acme\"}"), Some(2));
        assert_eq!(
            s.counter("custom.hits{phase=\"probe\",tenant=\"acme\"}"),
            Some(1)
        );
        assert!(s
            .gauges
            .iter()
            .any(|(n, v)| n == "custom.depth{tenant=\"acme\"}" && *v == 7));
        assert!(s
            .histograms
            .iter()
            .any(|(n, h)| n == "custom.cost{tenant=\"acme\"}" && h.count == 1));
        assert_eq!(s.counter("telemetry.series_dropped"), Some(0));
        crate::reset();
    }

    #[test]
    fn cardinality_cap_folds_into_other_bucket() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        set_series_cap(2);
        counter_add_labeled("cap.hits", &[("tenant", "a")], 1);
        counter_add_labeled("cap.hits", &[("tenant", "b")], 2);
        // Cap reached: c and d fold into __other__; a keeps updating.
        counter_add_labeled("cap.hits", &[("tenant", "c")], 4);
        counter_add_labeled("cap.hits", &[("tenant", "d")], 8);
        counter_add_labeled("cap.hits", &[("tenant", "a")], 16);
        crate::disable();

        let s = snapshot();
        assert_eq!(s.counter("cap.hits{tenant=\"a\"}"), Some(17));
        assert_eq!(s.counter("cap.hits{tenant=\"b\"}"), Some(2));
        assert_eq!(s.counter("cap.hits{tenant=\"c\"}"), None);
        assert_eq!(s.counter("cap.hits{tenant=\"__other__\"}"), Some(12));
        assert_eq!(s.counter("telemetry.series_dropped"), Some(2));
        // Totals are conserved across the fold.
        let total: u64 = s
            .counters
            .iter()
            .filter(|(n, _)| series_base(n) == "cap.hits")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, 31);
        crate::reset();
        assert_eq!(series_count(), 0);
        assert_eq!(series_cap(), DEFAULT_SERIES_CAP);
    }

    #[test]
    fn series_encoding_roundtrips_hostile_values() {
        let hostile = "a\\b\"c\nd";
        let enc = encode_series("m.x", &[("tenant", hostile), ("phase", "p")]);
        assert_eq!(enc, "m.x{phase=\"p\",tenant=\"a\\\\b\\\"c\\nd\"}");
        let (base, labels) = parse_series(&enc);
        assert_eq!(base, "m.x");
        assert_eq!(
            labels,
            vec![
                ("phase".to_string(), "p".to_string()),
                ("tenant".to_string(), hostile.to_string())
            ]
        );
        assert_eq!(series_base(&enc), "m.x");
        assert_eq!(series_tenant(&enc).as_deref(), Some(hostile));
        assert_eq!(parse_series("plain.name"), ("plain.name".to_string(), vec![]));
        // help_for resolves through the base name.
        assert!(has_help("exec.whatif_calls{tenant=\"a\"}"));
        assert!(!has_help("no.such.metric"));
    }
}
