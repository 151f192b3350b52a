//! `prod_d_writes`: the write-heavy Product D profile on the disk backend,
//! served by one closed-loop client, with `ContinuousTuner::step` at every
//! window boundary and the last third of read shapes held back until
//! mid-episode (the §VI-D workload shift). A run repeats episodes of
//! [`EPISODE_WINDOWS`] windows, each restored from the loaded database.

use crate::common::{
    canonical_rows, counters, counting_pass, median, peak_rss_mib, percentile, ratio, same_rows,
    shuffle, timed_setups, ServeStats, COUNTERS,
};
use crate::layers::Layers;
use crate::tpch::{REGRESSION_FACTOR, WORKERS};
use crate::trace::Tracer;
use crate::{Args, Report};
use aim_core::{AimConfig, AimConfigBuilder, ContinuousTuner};
use aim_exec::Engine;
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
use aim_sql::ast::Statement;
use aim_storage::{Database, IndexDef, IoStats, PagerOptions, Row, PAGE_SIZE};
use aim_workloads::production::{build, profiles};
use aim_workloads::replay::QuerySpec;
use aim_workloads::rng::{SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Buffer-pool frames (16 KiB each): fewer than the loaded data's pages,
/// so the working set does not fit and the pool evicts.
const POOL_FRAMES: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A window serves this many statements per workload spec.
const WINDOW_PER_SPEC: usize = 3;
/// Windows in the fixed stream the tuned and untuned designs are costed on.
const COST_WINDOWS: usize = 2;
/// Windows (each closed by a tuning step) per episode. Every episode starts
/// from the pristine database and replays the same seeded stream, so each
/// ends with the same design whatever the machine's speed.
const EPISODE_WINDOWS: usize = 12;

/// One closed-loop client. Each window it sends every spec in proportion
/// to its weight (largest-remainder rounding), in a seeded order, cycling
/// through each spec's parameter variants. Dealing the mix per window, not
/// drawing each statement independently, keeps a window's composition — and
/// with it what the tuner selects — the same whatever the seed; the seed
/// orders the statements, and so the DML that reads observe.
struct Client {
    rng: StdRng,
    next_variant: BTreeMap<String, usize>,
}

impl Client {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            next_variant: BTreeMap::new(),
        }
    }

    fn window<'a>(&mut self, specs: &'a [QuerySpec], len: usize) -> Vec<(&'a str, &'a Statement)> {
        let total: f64 = specs.iter().map(|s| s.weight).sum();
        let shares: Vec<f64> = specs
            .iter()
            .map(|s| s.weight / total * len as f64)
            .collect();
        let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..specs.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
        });
        let missing = len - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(missing) {
            counts[i] += 1;
        }
        let mut order: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
            .collect();
        shuffle(&mut order, &mut self.rng);
        order
            .into_iter()
            .map(|i| {
                let spec = &specs[i];
                let v = self.next_variant.entry(spec.label.clone()).or_insert(0);
                let stmt = &spec.variants[*v % spec.variants.len()];
                *v += 1;
                (spec.label.as_str(), stmt)
            })
            .collect()
    }
}

struct Prod {
    /// The loaded, checkpointed database every episode starts from.
    pristine: PathBuf,
    /// Where the running episode's database lives.
    dir: PathBuf,
    /// Read shapes minus the held-back third, plus all DML.
    phase1: Vec<QuerySpec>,
    /// Every shape.
    phase2: Vec<QuerySpec>,
    /// The first window, recorded during set-up.
    monitor: WorkloadMonitor,
    window: usize,
    tables: usize,
    rows: u64,
    load_wal_bytes: u64,
    data_pages: u64,
}

fn pager_options() -> PagerOptions {
    PagerOptions {
        pool_frames: POOL_FRAMES,
        ..Default::default()
    }
}

fn setup(root: &Path, seed: u64) -> Prod {
    let w = build(&profiles()[3]);
    let pristine = root.join("pristine");
    let _ = std::fs::remove_dir_all(&pristine);
    let mut db = Database::open_disk(&pristine, pager_options()).expect("open the disk database");
    let mut io = IoStats::new();
    let mut rows = 0u64;
    for table in w.db.tables() {
        let name = table.schema().name.clone();
        db.create_table(table.schema().clone())
            .expect("fresh table");
        let mut scan = IoStats::new();
        let target = db.table_mut(&name).expect("table just created");
        for row in table.scan_all(&mut scan) {
            target
                .insert(row.clone(), &mut io)
                .expect("unique primary key");
            rows += 1;
        }
    }
    db.analyze_all();
    let load_wal_bytes = db.storage_counters().wal_bytes;

    let (dml, reads): (Vec<QuerySpec>, Vec<QuerySpec>) = w
        .specs
        .iter()
        .cloned()
        .partition(|s| s.label.starts_with("dml"));
    let mut phase1 = reads[..reads.len() * 2 / 3].to_vec();
    phase1.extend(dml);
    let phase2 = w.specs.clone();
    let window = WINDOW_PER_SPEC * w.specs.len();

    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    for (_, stmt) in Client::new(seed).window(&phase1, window) {
        let out = engine
            .execute(&mut db, stmt)
            .expect("Product D statement executes");
        monitor.record(stmt, &out);
    }
    db.checkpoint().expect("checkpoint the loaded database");
    let tables = db.table_names().len();
    drop(db);
    let data_pages = std::fs::metadata(pristine.join("aim.db")).map_or(0, |m| m.len()) / PAGE_SIZE;
    Prod {
        pristine,
        dir: root.join("episode"),
        phase1,
        phase2,
        monitor,
        window,
        tables,
        rows,
        load_wal_bytes,
        data_pages,
    }
}

/// Restores the pristine files and opens them: WAL recovery, working-set
/// load and re-ANALYZE, as after a restart.
fn open_episode(ctx: &Prod) -> Database {
    let _ = std::fs::remove_dir_all(&ctx.dir);
    std::fs::create_dir_all(&ctx.dir).expect("create the episode directory");
    for entry in std::fs::read_dir(&ctx.pristine).expect("pristine directory") {
        let path = entry.expect("pristine entry").path();
        let name = path.file_name().expect("file name");
        std::fs::copy(&path, ctx.dir.join(name)).expect("copy a pristine file");
    }
    Database::open_disk(&ctx.dir, pager_options()).expect("reopen the episode database")
}

fn tune_builder() -> AimConfigBuilder {
    // The selection of the `continuous` experiment binary.
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 2,
            min_benefit: 0.5,
            max_queries: usize::MAX,
            include_dml: true,
        })
        .workers(WORKERS)
}

fn tuner() -> ContinuousTuner {
    ContinuousTuner::with_session(tune_builder().session(), 0.5)
}

/// Every table's rows, canonically ordered.
fn snapshot(db: &Database) -> Vec<(String, Vec<Row>)> {
    let mut io = IoStats::new();
    db.tables()
        .map(|t| {
            let rows: Vec<Row> = t.scan_all(&mut io).cloned().collect();
            (t.schema().name.clone(), canonical_rows(&rows))
        })
        .collect()
}

/// Runs the fixed cost stream on a tuned and an untuned copy of the final
/// data. Returns the cost ratio, the shapes regressed beyond λ₃ and the
/// shapes whose SELECT rows differ between the two designs.
fn compare_designs(ctx: &Prod, tuned: &mut Database, seed: u64) -> (f64, usize, Vec<String>) {
    let mut untuned = tuned.clone();
    for def in untuned.all_indexes() {
        untuned
            .drop_index(&def.table, &def.name)
            .expect("index exists");
    }
    tuned.analyze_all();
    untuned.analyze_all();
    let engine = Engine::new();
    let mut client = Client::new(seed ^ 0xC057);
    // Per shape: (executions, cost untuned, cost tuned).
    let mut shapes: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    let mut differ = Vec::new();
    for (label, stmt) in client.window(&ctx.phase2, COST_WINDOWS * ctx.window) {
        let a = engine
            .execute(&mut untuned, stmt)
            .expect("cost stream runs untuned");
        let b = engine.execute(tuned, stmt).expect("cost stream runs tuned");
        if matches!(stmt, Statement::Select(_))
            && !same_rows(&canonical_rows(&a.rows), &canonical_rows(&b.rows))
        {
            differ.push(label.to_string());
        }
        let e = shapes.entry(label.to_string()).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += a.cost;
        e.2 += b.cost;
    }
    let before: f64 = shapes.values().map(|s| s.1).sum();
    let after: f64 = shapes.values().map(|s| s.2).sum();
    let regressions = shapes
        .values()
        .filter(|(_, b, a)| *a > REGRESSION_FACTOR * *b)
        .count();
    differ.dedup();
    (after / before, regressions, differ)
}

/// Serves one window, recording each statement into a fresh monitor.
#[allow(clippy::too_many_arguments)]
fn serve_window(
    ctx: &Prod,
    db: &mut Database,
    specs: &[QuerySpec],
    client: &mut Client,
    engine: &Engine,
    stats: &mut ServeStats,
    tr: &mut Tracer,
    storage: bool,
    report: &mut Report,
) -> WorkloadMonitor {
    let mut monitor = WorkloadMonitor::new();
    tr.enter("serve");
    for (label, stmt) in client.window(specs, ctx.window) {
        report.attempted += 1;
        if let Err(e) = stats.serve(db, engine, stmt, &mut monitor, tr, storage) {
            report.failed += 1;
            eprintln!("perfbench: {label} failed: {e}");
        }
    }
    tr.exit();
    monitor
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let root = args
        .data_dir
        .join(format!("prod_d_writes-{}", std::process::id()));
    let (setup_times, ctx) = timed_setups(SETUPS, || setup(&root, args.seed));
    println!(
        "prod_d_writes sizes: {} rows in {} tables, {} data pages of {} KiB, {} pool frames, \
         window {} statements, {} windows per episode, load WAL {} bytes",
        ctx.rows,
        ctx.tables,
        ctx.data_pages,
        PAGE_SIZE / 1024,
        POOL_FRAMES,
        ctx.window,
        EPISODE_WINDOWS,
        ctx.load_wal_bytes
    );
    layers.load_wal_bytes_per_row = ratio(ctx.load_wal_bytes as f64, ctx.rows as f64);
    let engine = Engine::new();
    let cfg = tune_builder().build();

    if args.trace {
        counting_pass(&mut report, &mut layers, || {
            let mut db = open_episode(&ctx);
            let mut t = tuner();
            let c0 = counters(&COUNTERS[..2]);
            t.step(&mut db, &ctx.monitor).expect("counting pass tunes");
            let c1 = counters(&COUNTERS[..2]);
            let mut monitor = WorkloadMonitor::new();
            for (_, stmt) in Client::new(args.seed ^ 0xC0).window(&ctx.phase1, ctx.window) {
                if let Ok(out) = engine.execute(&mut db, stmt) {
                    monitor.record(stmt, &out);
                }
            }
            (c1[0] - c0[0], c1[1] - c0[1])
        });
    }

    let mut tr = Tracer::new();
    let mut untraced = ServeStats::default();
    let mut tune_ms = Vec::new();
    let mut traced_tune_ms = Vec::new();
    // The design the first episode ends with and its measurements; every
    // later episode replays the same stream and must end with it too.
    let mut design: Option<(Vec<IndexDef>, f64, usize, u64)> = None;
    let mut episodes = 0usize;
    let mut same_design = true;
    let mut windows = 0usize;
    let start = Instant::now();
    let db = loop {
        aim_exec::whatif::global().clear();
        let mut db = open_episode(&ctx);
        let mut tuner = tuner();
        let mut monitor = ctx.monitor.clone();
        let mut client = Client::new(args.seed ^ 0x5EED);
        for w in 0..EPISODE_WINDOWS {
            let traced = args.trace && windows % 2 == 1;
            windows += 1;
            tr.begin_iteration(traced);
            tr.enter("iteration");
            if traced {
                // The selection the step is about to make, on the same input.
                let selected = tr.time("monitor.select", || {
                    select_workload(&monitor, &cfg.selection)
                });
                layers.fingerprints.push(monitor.len() as f64);
                layers.selected.push(selected.len() as f64);
            }
            report.attempted += 1;
            let t = Instant::now();
            let step = tr.time("continuous.step", || tuner.step(&mut db, &monitor));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match step {
                Ok(out) if episodes == 0 => {
                    layers.created += out.tuning.created.len() as u64;
                    layers.reverted += (out.reverted.len() + out.rolled_back.len()) as u64;
                    layers.dropped_unused += out.dropped_unused.len() as u64;
                }
                Ok(_) => {}
                Err(e) => {
                    report.failed += 1;
                    eprintln!("perfbench: continuous step failed: {e}");
                }
            }
            if traced {
                traced_tune_ms.push(ms);
            } else {
                tune_ms.push(ms);
            }
            // The §VI-D shift: held-back read shapes arrive mid-episode.
            let specs = if w < EPISODE_WINDOWS / 2 {
                &ctx.phase1
            } else {
                &ctx.phase2
            };
            let stats = if traced {
                &mut layers.serve
            } else {
                &mut untraced
            };
            monitor = serve_window(
                &ctx,
                &mut db,
                specs,
                &mut client,
                &engine,
                stats,
                &mut tr,
                traced,
                &mut report,
            );
            tr.exit();
        }
        let mut defs = db.all_indexes();
        defs.sort_by(|a, b| (&a.table, &a.name).cmp(&(&b.table, &b.name)));
        match &design {
            Some((first, ..)) => same_design &= *first == defs,
            None => {
                let index_bytes = db.total_secondary_index_bytes();
                let t = Instant::now();
                let mut tuned = db.clone();
                layers.clone_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let (cost_ratio, regressions, differ) =
                    compare_designs(&ctx, &mut tuned, args.seed);
                report.check(
                    "tuned_same_rows",
                    differ.is_empty(),
                    if differ.is_empty() {
                        format!(
                            "{} statements compared with indexes dropped",
                            COST_WINDOWS * ctx.window
                        )
                    } else {
                        format!("differing shapes: {}", differ.join(", "))
                    },
                );
                design = Some((defs, cost_ratio, regressions, index_bytes));
            }
        }
        episodes += 1;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break db;
        }
    };
    let (_, cost_ratio, regressions, index_bytes) = design.expect("one episode ran");
    report.check(
        "episodes_same_design",
        same_design,
        format!("{episodes} episodes of {EPISODE_WINDOWS} windows end with one index set"),
    );

    // Correctness: index/table consistency and every acknowledged row after
    // a crash.
    let consistent = db.check_consistency();
    report.check(
        "consistency",
        consistent.is_ok(),
        format!("{:?}", consistent.err().unwrap_or_default()),
    );
    let before_crash = snapshot(&db);
    let indexes_before = db.all_indexes();
    db.simulate_crash();
    drop(db);
    match Database::open_disk(&ctx.dir, pager_options()) {
        Ok(db) => {
            let same = snapshot(&db) == before_crash;
            let same_indexes = db.all_indexes() == indexes_before;
            report.check(
                "crash_recovery",
                same && same_indexes && db.check_consistency().is_ok(),
                format!(
                    "rows identical: {same}, indexes identical: {same_indexes}, {} tables",
                    before_crash.len()
                ),
            );
        }
        Err(e) => report.check("crash_recovery", false, format!("reopen failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&root);

    report.regressions = regressions;
    report.e2e("setup_s", median(&setup_times), "s", setup_times.len());
    report.e2e("tune_ms.p50", median(&tune_ms), "ms", tune_ms.len());
    report.e2e(
        "tune_ms.p90",
        percentile(&tune_ms, 90.0),
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
    report.e2e("cost_ratio", cost_ratio, "ratio", COST_WINDOWS * ctx.window);
    report.e2e("index_mb", index_bytes as f64 / (1 << 20) as f64, "MiB", 1);
    report.e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    if args.trace {
        layers.traced_iterations = tr.traced_iterations();
        layers.select_ms = tr.per_iteration_ms("monitor.select");
        layers.overhead_tune_ms = median(&traced_tune_ms) - median(&tune_ms);
        layers.overhead_stmt_us = median(&layers.serve.stmt_us) - median(&untraced.stmt_us);
        if let Some(path) = &args.spans_out {
            if let Err(e) = tr.write_tsv(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
        layers.report(&tr, &mut report);
    }
    report
}
