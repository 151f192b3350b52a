//! The two TPC-H workloads.
//!
//! * `tpch_tune` — the replay-bound case: `TuningSession::run` on a window
//!   recorded once at set-up, then the window's statements served on the
//!   tuned database. Clone validation dominates the pass.
//! * `tpch_advise` — the merge- and planner-bound case: `AimAdvisor::recommend`
//!   at j = 3 and max width 4 over Fig. 4's budget grid, with the global
//!   what-if cache cleared before each call. No replay, no index build.

use crate::common::{
    canonical_rows, counters, counting_pass, median, peak_rss_mib, percentile, same_rows, shuffle,
    timed_setups, ServeStats, COUNTERS,
};
use crate::layers::Layers;
use crate::trace::Tracer;
use crate::{Args, Report};
use aim_core::session::RunCtl;
use aim_core::{
    config_size, defs_to_config, generate_candidates, knapsack_select, rank_candidates_with,
    try_generate_candidates, try_rank_candidates_with, try_validate_on_clone, workload_cost,
    AimAdvisor, AimConfig, AimConfigBuilder, AimError, IndexAdvisor, WeightedQuery,
};
use aim_exec::{estimate_statement_cost, Engine, HypoConfig};
use aim_monitor::{select_workload, QueryStats, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_storage::{Database, IndexDef, IoStats, Row};
use aim_workloads::rng::{SeedableRng, StdRng};
use aim_workloads::tpch::{build_database, weighted_workload, TpchConfig};
use std::time::Instant;

/// Scale 0.002: about 12k lineitem rows.
const SCALE: f64 = 0.002;
/// Executions of each of the 22 shapes in the recorded window.
const REPEATS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Worker threads for every tuning call (never 0 = one per core, so the
/// numbers do not depend on the host's core count).
pub const WORKERS: usize = 2;
/// λ₃, the default per-statement regression tolerance.
pub const REGRESSION_FACTOR: f64 = 1.1;
/// Data and query parameters are those of the paper binaries (`fig4`,
/// `aim_cli`); the benchmark seed orders the statement stream. Both the
/// data seed and the parameters decide which shapes are expensive and which
/// indexes win, so drawing them from the seed would make the run-to-run
/// spread mostly a matter of which seeds were drawn.
const DATA_SEED: u64 = 0xAA17;
const QUERY_SEED: u64 = 17;
/// Fig. 4's budget grid, as fractions of the unlimited recommendation.
const GRID: [f64; 7] = [0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.25];

/// Set-up state shared by both TPC-H workloads.
struct Tpch {
    /// Untuned, analyzed database.
    db: Database,
    /// The 22 shapes, parameterized from the seed.
    workload: Vec<WeightedQuery>,
    /// The window: every shape `REPEATS` times, in seeded order.
    stream: Vec<usize>,
    /// The window as recorded on the untuned database.
    monitor: WorkloadMonitor,
    /// Canonical result rows and per-execution cost of each shape, untuned.
    base_rows: Vec<Vec<Row>>,
    base_cost: Vec<f64>,
}

impl Tpch {
    fn print_sizes(&self, workload: &str) {
        let rows: usize = self.db.tables().map(|t| t.row_count()).sum();
        let lineitem = self.db.table("lineitem").map_or(0, |t| t.row_count());
        println!(
            "{workload} sizes: {rows} rows in {} tables ({lineitem} lineitem), {} shapes, \
             window {} statements, memory backend",
            self.db.table_names().len(),
            self.workload.len(),
            self.stream.len()
        );
    }
}

fn setup(seed: u64) -> Tpch {
    let mut db = build_database(&TpchConfig {
        scale: SCALE,
        seed: DATA_SEED,
    });
    let workload = weighted_workload(QUERY_SEED);
    let mut stream: Vec<usize> = (0..workload.len())
        .flat_map(|q| std::iter::repeat_n(q, REPEATS))
        .collect();
    shuffle(&mut stream, &mut StdRng::seed_from_u64(seed));
    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    let mut base_rows = vec![Vec::new(); workload.len()];
    let mut base_cost = vec![0.0; workload.len()];
    for &q in &stream {
        let stmt = &workload[q].statement;
        let out = engine
            .execute(&mut db, stmt)
            .expect("every TPC-H shape executes on the untuned database");
        monitor.record(stmt, &out);
        base_rows[q] = canonical_rows(&out.rows);
        base_cost[q] = out.cost;
    }
    Tpch {
        db,
        workload,
        stream,
        monitor,
        base_rows,
        base_cost,
    }
}

/// Per-shape results on a tuned design, filled the first time each shape
/// is served.
struct Served {
    cost: Vec<Option<f64>>,
    mismatched: Vec<usize>,
}

impl Served {
    fn new(shapes: usize) -> Self {
        Self {
            cost: vec![None; shapes],
            mismatched: Vec::new(),
        }
    }

    fn observe(&mut self, ctx: &Tpch, q: usize, rows: &[Row], cost: f64) {
        if self.cost[q].is_some() {
            return;
        }
        self.cost[q] = Some(cost);
        if !same_rows(&canonical_rows(rows), &ctx.base_rows[q]) {
            self.mismatched.push(q);
        }
    }

    /// Executor cost of the window on the tuned design ÷ on the untuned one,
    /// and the shapes whose per-execution cost grew beyond λ₃.
    fn cost_ratio_and_regressions(&self, ctx: &Tpch) -> (f64, usize) {
        let mut before = 0.0;
        let mut after = 0.0;
        let mut regressions = 0;
        for &q in &ctx.stream {
            let a = self.cost[q].expect("every shape served");
            before += ctx.base_cost[q];
            after += a;
        }
        for (q, a) in self.cost.iter().enumerate() {
            if a.expect("every shape served") > REGRESSION_FACTOR * ctx.base_cost[q] {
                regressions += 1;
            }
        }
        (after / before, regressions)
    }

    fn check(&self, report: &mut Report, what: &str) {
        let label: Vec<String> = self
            .mismatched
            .iter()
            .map(|q| format!("Q{}", q + 1))
            .collect();
        report.check(
            &format!("{what}_same_rows"),
            self.mismatched.is_empty(),
            if label.is_empty() {
                format!(
                    "{} shapes compared with the untuned result",
                    self.cost.len()
                )
            } else {
                format!("differing shapes: {}", label.join(", "))
            },
        );
    }
}

fn tune_builder() -> AimConfigBuilder {
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.5,
            ..Default::default()
        })
        .workers(WORKERS)
}

/// What one replayed pass reports besides its spans.
#[derive(Default)]
struct PassStats {
    created: Vec<(String, Vec<String>)>,
    fingerprints: f64,
    selected: f64,
    candidates: f64,
    chosen: f64,
    chosen_bytes: f64,
    accepted: f64,
    rejected: f64,
    build_rows_written: f64,
    whatif_hits: u64,
    whatif_misses: u64,
    /// Deltas of `exec.statements` / `exec.rows_read` across validation;
    /// non-zero only while telemetry is armed (the counting pass).
    replay_statements: u64,
    replay_rows_read: u64,
}

fn created_key(def: &IndexDef) -> (String, Vec<String>) {
    (def.table.clone(), def.columns.clone())
}

/// `TuningSession::run` replayed as its public layer sequence:
/// `select_workload` → `try_generate_candidates` → `try_rank_candidates_with`
/// → `knapsack_select` → `try_validate_on_clone` → `create_index`, each
/// call in its own span. The session's ledger, sharding and LP branches are
/// off in this configuration and so left out.
fn layer_pass(
    db: &mut Database,
    monitor: &WorkloadMonitor,
    cfg: &AimConfig,
    engine: &Engine,
    tr: &mut Tracer,
) -> Result<PassStats, AimError> {
    let ctl = RunCtl::none();
    let mut stats = PassStats {
        fingerprints: monitor.len() as f64,
        ..Default::default()
    };
    let workload = tr.time("monitor.select", || {
        select_workload(monitor, &cfg.selection)
    });
    stats.selected = workload.len() as f64;
    if workload.is_empty() {
        return Ok(stats);
    }
    if db.stats_dirty() {
        tr.time("storage.analyze", || db.analyze_all());
    }
    let mut candidates = tr.time("candidates.gen", || {
        try_generate_candidates(db, &workload, &cfg.candidate_gen, &ctl)
    })?;
    // As the session does: drop candidates an existing index already serves.
    candidates.retain(|c| {
        db.table(&c.table).is_ok_and(|t| {
            !t.indexes().any(|ix| {
                ix.def().columns.len() >= c.columns.len()
                    && ix.def().columns[..c.columns.len()] == c.columns[..]
            })
        })
    });
    stats.candidates = candidates.len() as f64;
    let before = aim_exec::whatif::global().stats();
    let ranked = tr.time("ranking.rank", || {
        try_rank_candidates_with(
            db,
            &workload,
            &candidates,
            &engine.cost_model,
            cfg.workers,
            &ctl,
        )
    })?;
    let after = aim_exec::whatif::global().stats();
    stats.whatif_hits = after.hits - before.hits;
    stats.whatif_misses = after.misses - before.misses;
    let used = db.total_secondary_index_bytes();
    let chosen = tr.time("ranking.knapsack", || {
        knapsack_select(&ranked, cfg.storage_budget, used)
    });
    stats.chosen = chosen.len() as f64;
    stats.chosen_bytes = chosen.iter().map(|r| r.size_bytes as f64).sum();
    if chosen.is_empty() {
        return Ok(stats);
    }
    let mut vcfg = cfg.validation.clone();
    if vcfg.workers == 0 {
        vcfg.workers = cfg.workers;
    }
    let c0 = counters(&COUNTERS[..2]);
    let result = tr.time("validate", || {
        try_validate_on_clone(db, &workload, &chosen, engine, &vcfg, &ctl)
    })?;
    let c1 = counters(&COUNTERS[..2]);
    stats.replay_statements = c1[0] - c0[0];
    stats.replay_rows_read = c1[1] - c0[1];
    stats.accepted = result.accepted.len() as f64;
    stats.rejected = result.rejected.len() as f64;
    let mut io = IoStats::new();
    for r in result.accepted {
        let def = IndexDef::new(
            r.candidate.name(),
            r.candidate.table.clone(),
            r.candidate.columns.clone(),
        );
        if tr
            .time("storage.build", || db.create_index(def.clone(), &mut io))
            .is_ok()
        {
            stats.created.push(created_key(&def));
        }
    }
    stats.build_rows_written = io.rows_written as f64;
    if db.stats_dirty() {
        tr.time("storage.analyze", || db.analyze_all());
    }
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn serve_stream(
    ctx: &Tpch,
    positions: impl Iterator<Item = usize>,
    db: &mut Database,
    engine: &Engine,
    stats: &mut ServeStats,
    tr: &mut Tracer,
    served: &mut Served,
    report: &mut Report,
) {
    let mut monitor = WorkloadMonitor::new();
    tr.enter("serve");
    for pos in positions {
        let q = ctx.stream[pos];
        report.attempted += 1;
        match stats.serve(
            db,
            engine,
            &ctx.workload[q].statement,
            &mut monitor,
            tr,
            false,
        ) {
            Ok(out) => served.observe(ctx, q, &out.rows, out.cost),
            Err(e) => {
                report.failed += 1;
                eprintln!("perfbench: Q{} failed: {e}", q + 1);
            }
        }
    }
    tr.exit();
}

fn add_pass(layers: &mut Layers, p: &PassStats) {
    layers.fingerprints.push(p.fingerprints);
    layers.selected.push(p.selected);
    layers.candidates.push(p.candidates);
    layers.chosen.push(p.chosen);
    layers.chosen_bytes.push(p.chosen_bytes);
    layers.accepted.push(p.accepted);
    layers.rejected.push(p.rejected);
    layers.build_rows_written.push(p.build_rows_written);
    layers.whatif_hits += p.whatif_hits;
    layers.whatif_misses += p.whatif_misses;
}

/// Fills the layer timings that come straight from the spans.
fn span_layers(layers: &mut Layers, tr: &Tracer) {
    layers.traced_iterations = tr.traced_iterations();
    layers.select_ms = tr.per_iteration_ms("monitor.select");
    layers.gen_ms = tr.per_iteration_ms("candidates.gen");
    layers.rank_ms = tr.per_iteration_ms("ranking.rank");
    layers.knapsack_ms = tr.per_iteration_ms("ranking.knapsack");
    layers.validate_ms = tr.per_iteration_ms("validate");
    layers.clone_ms = tr.per_iteration_ms("storage.clone");
    layers.build_ms = tr.per_iteration_ms("storage.build");
    layers.coverage = tr.coverage("tune");
}

#[allow(clippy::too_many_arguments)]
fn finish(
    args: &Args,
    report: &mut Report,
    layers: &mut Layers,
    tr: &Tracer,
    setup_times: &[f64],
    tune_ms: &[f64],
    traced_tune_ms: &[f64],
    untraced: &ServeStats,
) {
    report.e2e("setup_s", median(setup_times), "s", setup_times.len());
    report.e2e("tune_ms.p50", median(tune_ms), "ms", tune_ms.len());
    report.e2e(
        "tune_ms.p90",
        percentile(tune_ms, 90.0),
        "ms",
        tune_ms.len(),
    );
    report.e2e(
        "stmt_us.p50",
        median(&untraced.stmt_us),
        "us",
        untraced.stmt_us.len(),
    );
    report.e2e(
        "stmt_us.p99",
        percentile(&untraced.stmt_us, 99.0),
        "us",
        untraced.stmt_us.len(),
    );
    if args.trace {
        span_layers(layers, tr);
        layers.overhead_tune_ms = median(traced_tune_ms) - median(tune_ms);
        layers.overhead_stmt_us = median(&layers.serve.stmt_us) - median(&untraced.stmt_us);
        if let Some(path) = &args.spans_out {
            if let Err(e) = tr.write_tsv(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
    }
}

pub fn run_tune(args: &Args) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let (setup_times, ctx) = timed_setups(SETUPS, || setup(args.seed));
    ctx.print_sizes("tpch_tune");
    let session = tune_builder().session();
    let cfg = tune_builder().build();
    let engine = Engine::new();

    if args.trace {
        // Sequential validation routes replay through `Engine::execute`,
        // where the program counts statements and rows; the verdict is the
        // same for any worker count.
        let mut count_cfg = cfg.clone();
        count_cfg.validation.workers = 1;
        counting_pass(&mut report, &mut layers, || {
            let mut db = ctx.db.clone();
            let pass = layer_pass(
                &mut db,
                &ctx.monitor,
                &count_cfg,
                &engine,
                &mut Tracer::new(),
            )
            .expect("counting pass tunes");
            let mut monitor = WorkloadMonitor::new();
            for &q in &ctx.stream {
                let stmt = &ctx.workload[q].statement;
                if let Ok(out) = engine.execute(&mut db, stmt) {
                    monitor.record(stmt, &out);
                }
            }
            (pass.replay_statements, pass.replay_rows_read)
        });
    }

    let mut tr = Tracer::new();
    let mut untraced = ServeStats::default();
    let mut served = Served::new(ctx.workload.len());
    let mut tune_ms = Vec::new();
    let mut traced_tune_ms = Vec::new();
    let mut reference: Option<Vec<(String, Vec<String>)>> = None;
    let mut layer_sets = Vec::new();
    let mut index_bytes = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while i < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i % 2 == 1;
        tr.begin_iteration(traced);
        aim_exec::whatif::global().clear();
        tr.enter("iteration");
        let mut db = tr.time("storage.clone", || ctx.db.clone());
        report.attempted += 1;
        let t = Instant::now();
        let created = if traced {
            tr.enter("tune");
            let pass = layer_pass(&mut db, &ctx.monitor, &cfg, &engine, &mut tr);
            tr.exit();
            pass.map(|p| {
                add_pass(&mut layers, &p);
                p.created
            })
        } else {
            session
                .run(&mut db, &ctx.monitor)
                .map(|o| o.created.iter().map(|c| created_key(&c.def)).collect())
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match created {
            Ok(set) if traced => {
                traced_tune_ms.push(ms);
                layer_sets.push(set);
            }
            Ok(set) => {
                tune_ms.push(ms);
                index_bytes = db.total_secondary_index_bytes();
                if reference.is_none() {
                    reference = Some(set);
                }
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("perfbench: tuning pass failed: {e}");
            }
        }
        let stats = if traced {
            &mut layers.serve
        } else {
            &mut untraced
        };
        serve_stream(
            &ctx,
            0..ctx.stream.len(),
            &mut db,
            &engine,
            stats,
            &mut tr,
            &mut served,
            &mut report,
        );
        tr.exit();
        i += 1;
    }

    if !args.trace {
        // One untimed pass through the layer sequence, for the check below.
        let mut db = ctx.db.clone();
        match layer_pass(&mut db, &ctx.monitor, &cfg, &engine, &mut Tracer::new()) {
            Ok(p) => layer_sets.push(p.created),
            Err(e) => eprintln!("perfbench: layer sequence failed: {e}"),
        }
    }
    let reference = reference.unwrap_or_default();
    report.check(
        "layer_sequence_same_indexes",
        !reference.is_empty()
            && !layer_sets.is_empty()
            && layer_sets.iter().all(|s| *s == reference),
        format!(
            "TuningSession::run created {reference:?}; {} layer-sequence passes compared",
            layer_sets.len()
        ),
    );
    served.check(&mut report, "tuned");
    let (cost_ratio, regressions) = served.cost_ratio_and_regressions(&ctx);

    finish(
        args,
        &mut report,
        &mut layers,
        &tr,
        &setup_times,
        &tune_ms,
        &traced_tune_ms,
        &untraced,
    );
    report.e2e("cost_ratio", cost_ratio, "ratio", ctx.stream.len());
    report.e2e("index_mb", index_bytes as f64 / (1 << 20) as f64, "MiB", 1);
    report.e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    report.regressions = regressions;
    if args.trace {
        layers.report(&tr, &mut report);
    }
    report
}

/// State for `tpch_advise`.
struct Advise {
    tpch: Tpch,
    budgets: Vec<u64>,
    /// The untuned database with the unlimited recommendation built: the
    /// design the served statements run on.
    advised: Database,
}

fn advisor() -> AimAdvisor {
    AimAdvisor::new(3, 4)
}

fn setup_advise(seed: u64) -> Advise {
    let tpch = setup(seed);
    aim_exec::whatif::global().clear();
    let full = advisor().recommend(&tpch.db, &tpch.workload, u64::MAX);
    let full_size = config_size(&tpch.db, &full).max(1);
    let budgets = GRID.iter().map(|f| (full_size as f64 * f) as u64).collect();
    let mut advised = tpch.db.clone();
    let mut io = IoStats::new();
    for def in full {
        advised
            .create_index(def, &mut io)
            .expect("recommended index builds");
    }
    advised.analyze_all();
    Advise {
        tpch,
        budgets,
        advised,
    }
}

/// `AimAdvisor::recommend` replayed as its public layer sequence. The
/// advisor ranks with `workers = 0` (one per core); this replay passes
/// [`WORKERS`], which ranks identically.
fn advise_pass(
    db: &Database,
    workload: &[WeightedQuery],
    budget: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Vec<IndexDef> {
    let adv = advisor();
    let empty = HypoConfig::only(Vec::new());
    let synthetic: Vec<WorkloadQuery> = tr.time("ranking.whatif_base", || {
        workload
            .iter()
            .map(|wq| {
                let base = estimate_statement_cost(db, &wq.statement, &empty, &adv.cost_model)
                    .unwrap_or(0.0);
                WorkloadQuery {
                    stats: QueryStats::synthetic(
                        &wq.statement,
                        wq.weight.max(1.0) as u64,
                        wq.weight * base,
                    ),
                    benefit: 0.0,
                    weight: wq.weight,
                }
            })
            .collect()
    });
    let candidates = tr.time("candidates.gen", || {
        generate_candidates(db, &synthetic, &adv.gen)
    });
    let before = aim_exec::whatif::global().stats();
    let ranked = tr.time("ranking.rank", || {
        rank_candidates_with(db, &synthetic, &candidates, &adv.cost_model, WORKERS)
    });
    let after = aim_exec::whatif::global().stats();
    let chosen = tr.time("ranking.knapsack", || knapsack_select(&ranked, budget, 0));
    layers.candidates.push(candidates.len() as f64);
    layers.chosen.push(chosen.len() as f64);
    layers
        .chosen_bytes
        .push(chosen.iter().map(|r| r.size_bytes as f64).sum());
    layers.whatif_hits += after.hits - before.hits;
    layers.whatif_misses += after.misses - before.misses;
    chosen
        .into_iter()
        .map(|r| {
            IndexDef::new(
                r.candidate.name(),
                r.candidate.table.clone(),
                r.candidate.columns.clone(),
            )
        })
        .collect()
}

pub fn run_advise(args: &Args) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let (setup_times, mut ctx) = timed_setups(SETUPS, || setup_advise(args.seed));
    ctx.tpch.print_sizes("tpch_advise");
    let engine = Engine::new();
    let shapes = ctx.tpch.workload.len();

    if args.trace {
        let budget = ctx.budgets[GRID.len() - 2];
        counting_pass(&mut report, &mut layers, || {
            advisor().recommend(&ctx.tpch.db, &ctx.tpch.workload, budget);
            let mut db = ctx.advised.clone();
            let mut monitor = WorkloadMonitor::new();
            for q in &ctx.tpch.workload {
                if let Ok(out) = engine.execute(&mut db, &q.statement) {
                    monitor.record(&q.statement, &out);
                }
            }
            (0, 0)
        });
    }

    let cm = aim_exec::CostModel::default();
    let none = HypoConfig::only(Vec::new());
    let base_total = workload_cost(&ctx.tpch.db, &ctx.tpch.workload, &none, &cm);
    let base_shape: Vec<f64> = ctx
        .tpch
        .workload
        .iter()
        .map(|wq| workload_cost(&ctx.tpch.db, std::slice::from_ref(wq), &none, &cm))
        .collect();

    let mut tr = Tracer::new();
    let mut untraced = ServeStats::default();
    let mut served = Served::new(shapes);
    let mut tune_ms = Vec::new();
    let mut traced_tune_ms = Vec::new();
    // Per budget: the first recommendation, its relative estimated cost and
    // size, and whether every later call repeated it.
    let mut first: Vec<Option<(Vec<IndexDef>, f64, u64)>> = vec![None; GRID.len()];
    let mut repeats = true;
    let mut regressed = vec![false; shapes];
    let start = Instant::now();
    let mut k = 0usize;
    while k < 2 * GRID.len() || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && k % 2 == 1;
        let b = k % GRID.len();
        tr.begin_iteration(traced);
        aim_exec::whatif::global().clear();
        tr.enter("iteration");
        report.attempted += 1;
        let t = Instant::now();
        let defs = if traced {
            tr.enter("tune");
            let defs = advise_pass(
                &ctx.tpch.db,
                &ctx.tpch.workload,
                ctx.budgets[b],
                &mut tr,
                &mut layers,
            );
            tr.exit();
            defs
        } else {
            advisor().recommend(&ctx.tpch.db, &ctx.tpch.workload, ctx.budgets[b])
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if traced {
            traced_tune_ms.push(ms);
        } else {
            tune_ms.push(ms);
        }
        match &first[b] {
            Some((prev, _, _)) => repeats &= *prev == defs,
            None => {
                let db = &ctx.tpch.db;
                let config = defs_to_config(db, &defs);
                let rel = workload_cost(db, &ctx.tpch.workload, &config, &cm) / base_total;
                for (q, wq) in ctx.tpch.workload.iter().enumerate() {
                    let c = workload_cost(db, std::slice::from_ref(wq), &config, &cm);
                    regressed[q] |= c > REGRESSION_FACTOR * base_shape[q];
                }
                let size = config_size(db, &defs);
                first[b] = Some((defs, rel, size));
            }
        }
        // Each call is followed by the next `shapes` statements of the stream.
        let from = (k * shapes) % ctx.tpch.stream.len();
        let stats = if traced {
            &mut layers.serve
        } else {
            &mut untraced
        };
        serve_stream(
            &ctx.tpch,
            (from..from + shapes).map(|p| p % ctx.tpch.stream.len()),
            &mut ctx.advised,
            &engine,
            stats,
            &mut tr,
            &mut served,
            &mut report,
        );
        tr.exit();
        k += 1;
    }

    report.check(
        "advise_repeats",
        repeats,
        format!(
            "{k} calls over {} budgets; traced replays included",
            GRID.len()
        ),
    );
    served.check(&mut report, "advised");
    let grid: Vec<&(Vec<IndexDef>, f64, u64)> = first.iter().flatten().collect();
    let cost_ratio = grid.iter().map(|g| g.1).sum::<f64>() / grid.len() as f64;
    let index_bytes = grid.iter().map(|g| g.2 as f64).sum::<f64>() / grid.len() as f64;

    finish(
        args,
        &mut report,
        &mut layers,
        &tr,
        &setup_times,
        &tune_ms,
        &traced_tune_ms,
        &untraced,
    );
    report.e2e("cost_ratio", cost_ratio, "ratio", grid.len());
    report.e2e(
        "index_mb",
        index_bytes / (1 << 20) as f64,
        "MiB",
        grid.len(),
    );
    report.e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    report.regressions = regressed.iter().filter(|r| **r).count();
    if args.trace {
        layers.report(&tr, &mut report);
    }
    report
}
