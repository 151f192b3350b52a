//! Randomized property tests over the core invariants.
//!
//! Each test draws a few hundred cases from the deterministic in-tree
//! PRNG (`aim_workloads::rng`) with a fixed seed, so failures are exactly
//! reproducible while still sweeping a wide input space.

use aim_core::partial_order::{merge_partial_orders, PartialOrder};
use aim_core::{
    generate_candidates, rank_candidates_unbatched, rank_candidates_with, CandidateGenConfig,
    RankedCandidate,
};
use aim_exec::{CostModel, Engine};
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_sql::normalize::normalize_statement;
use aim_sql::parse_statement;
use aim_storage::{
    ColumnDef, ColumnType, Database, Histogram, IndexDef, IoStats, TableSchema, Value,
};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;
use std::ops::Bound;

// ---------------------------------------------------------- partial orders

/// A random partial order over a subset of col0..col5: 1–3 disjoint
/// unordered partitions of 1–3 columns each.
fn random_partial_order(rng: &mut StdRng) -> PartialOrder {
    let n_parts = rng.gen_range(1..=3usize);
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut parts: Vec<Vec<String>> = Vec::new();
    for _ in 0..n_parts {
        let part_size = rng.gen_range(1..=3usize);
        let mut fresh = Vec::new();
        for _ in 0..part_size {
            let c = rng.gen_range(0..6usize);
            if seen.insert(c) {
                fresh.push(format!("col{c}"));
            }
        }
        if !fresh.is_empty() {
            parts.push(fresh);
        }
    }
    if parts.is_empty() {
        parts.push(vec![format!("col{}", rng.gen_range(0..6usize))]);
    }
    PartialOrder::new(parts).expect("disjoint by construction")
}

#[test]
fn merge_result_satisfies_both_inputs() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..300 {
        let p = random_partial_order(&mut rng);
        let q = random_partial_order(&mut rng);
        let Some(m) = p.merge_pairwise(&q) else {
            continue;
        };
        // Same column set as Q.
        assert_eq!(m.columns(), q.columns());
        let total = m.total_order();
        assert!(m.is_satisfied_by(&total));
        // P's columns form a prefix of the merged order.
        let p_cols = p.columns();
        let prefix: BTreeSet<String> = total[..p_cols.len()].iter().cloned().collect();
        assert_eq!(prefix, p_cols);
        // Pairwise orderings of both inputs are respected.
        for a in &p_cols {
            for b in &p_cols {
                if p.precedes(a, b) {
                    assert!(!m.precedes(b, a), "merge broke {a} < {b} from P");
                }
            }
        }
        let q_cols = q.columns();
        for a in &q_cols {
            for b in &q_cols {
                if q.precedes(a, b) {
                    assert!(!m.precedes(b, a), "merge broke {a} < {b} from Q");
                }
            }
        }
    }
}

#[test]
fn merge_with_self_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..300 {
        let p = random_partial_order(&mut rng);
        let m = p.merge_pairwise(&p).expect("self-merge always allowed");
        assert_eq!(m, p);
    }
}

#[test]
fn merge_closure_terminates_and_contains_inputs() {
    let mut rng = StdRng::seed_from_u64(0xC10);
    for _ in 0..100 {
        let orders: Vec<PartialOrder> = (0..rng.gen_range(1..=4usize))
            .map(|_| random_partial_order(&mut rng))
            .collect();
        let merged = merge_partial_orders(&orders, true);
        for o in &orders {
            assert!(merged.contains(o), "closure lost an input order");
        }
        // Fixed point: merging again adds nothing.
        let again = merge_partial_orders(&merged, true);
        assert_eq!(again.len(), merged.len());
    }
}

#[test]
fn total_order_always_satisfies() {
    let mut rng = StdRng::seed_from_u64(0xD0);
    for _ in 0..300 {
        let p = random_partial_order(&mut rng);
        assert!(p.is_satisfied_by(&p.total_order()));
        assert_eq!(p.total_order().len(), p.width());
    }
}

// ------------------------------------------------------------- normalizer

fn random_ident(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=8usize);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

#[test]
fn fingerprint_invariant_under_literals() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    let f2 = normalize_statement(
        &parse_statement("SELECT id FROM t WHERE x = 0 AND y > 0 AND z = 'zz'").expect("valid"),
    )
    .fingerprint;
    // A parameterized statement is the same query as its instances.
    let prepared = normalize_statement(
        &parse_statement("SELECT id FROM t WHERE x = ? AND y > ? AND z = ?").expect("valid"),
    )
    .fingerprint;
    assert_eq!(prepared, f2, "placeholders changed the fingerprint");
    for _ in 0..200 {
        // Negative literals parse as `Neg(literal)`; they must collapse to
        // the same placeholder as non-negative ones.
        let a = rng.gen_range(-1000..1000i64);
        let b = rng.gen_range(-1000..1000i64);
        let s = random_ident(&mut rng);
        let q1 = format!("SELECT id FROM t WHERE x = {a} AND y > {b} AND z = '{s}'");
        let f1 = normalize_statement(&parse_statement(&q1).expect("valid")).fingerprint;
        assert_eq!(f1, f2, "literals changed the fingerprint: {q1}");
    }
}

#[test]
fn parse_display_roundtrip_stable() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    for _ in 0..200 {
        let a = rng.gen_range(0..100i64);
        let b = rng.gen_range(0..100i64);
        let sql = format!(
            "SELECT x, COUNT(*) FROM t WHERE a = {a} AND (b > {b} OR c IN (1, 2)) \
             GROUP BY x ORDER BY x ASC LIMIT 5"
        );
        let stmt = parse_statement(&sql).expect("valid");
        let reparsed = parse_statement(&stmt.to_string()).expect("display is parseable");
        assert_eq!(stmt, reparsed);
    }
}

// ------------------------------------------------------------- histograms

#[test]
fn histogram_mass_conserved() {
    let mut rng = StdRng::seed_from_u64(0x41);
    for _ in 0..150 {
        let n = rng.gen_range(1..300usize);
        let mut values: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500i64)).collect();
        values.sort();
        let vals: Vec<Value> = values.iter().map(|v| Value::Int(*v)).collect();
        let h = Histogram::build(&vals, 16);
        assert_eq!(h.total(), vals.len() as u64);
        // Full-range estimate recovers (approximately) everything.
        let est = h.estimate_range(Bound::Unbounded, Bound::Unbounded);
        assert!((est - vals.len() as f64).abs() < 1.0 + vals.len() as f64 * 0.1);
    }
}

#[test]
fn histogram_eq_estimate_bounded() {
    let mut rng = StdRng::seed_from_u64(0x42);
    for _ in 0..150 {
        let n = rng.gen_range(1..200usize);
        let mut values: Vec<i64> = (0..n).map(|_| rng.gen_range(0..50i64)).collect();
        values.sort();
        let probe = rng.gen_range(0..50i64);
        let vals: Vec<Value> = values.iter().map(|v| Value::Int(*v)).collect();
        let h = Histogram::build(&vals, 8);
        let est = h.estimate_eq(&Value::Int(probe));
        assert!(est >= 0.0);
        assert!(est <= vals.len() as f64);
    }
}

// ------------------------------------- executor: index/scan equivalence

fn int_table(rng: &mut StdRng, columns: &[&str], max_rows: usize, domain: i64) -> Database {
    let mut defs = vec![ColumnDef::new("id", ColumnType::Int)];
    defs.extend(columns.iter().map(|c| ColumnDef::new(*c, ColumnType::Int)));
    let mut db = Database::new();
    db.create_table(TableSchema::new("t", defs, &["id"]).expect("valid"))
        .expect("fresh");
    let mut io = IoStats::new();
    let n = rng.gen_range(1..=max_rows);
    for i in 0..n {
        let mut row = vec![Value::Int(i as i64)];
        row.extend((0..columns.len()).map(|_| Value::Int(rng.gen_range(0..domain))));
        db.table_mut("t")
            .expect("exists")
            .insert(row, &mut io)
            .expect("unique");
    }
    db.analyze_all();
    db
}

#[test]
fn indexed_execution_equals_scan() {
    let cols = ["a", "b", "c"];
    let ops = ["=", ">", "<", ">=", "<="];
    let mut rng = StdRng::seed_from_u64(0x5EEC);
    let engine = Engine::new();
    for _ in 0..64 {
        let mut db = int_table(&mut rng, &cols, 120, 30);
        let n_preds = rng.gen_range(1..=2usize);
        let where_clause: Vec<String> = (0..n_preds)
            .map(|_| {
                format!(
                    "{} {} {}",
                    cols[rng.gen_range(0..cols.len())],
                    ops[rng.gen_range(0..ops.len())],
                    rng.gen_range(0..30i64)
                )
            })
            .collect();
        let sql = format!("SELECT id, a, b, c FROM t WHERE {}", where_clause.join(" AND "));
        let stmt = parse_statement(&sql).expect("valid");

        let mut base = engine.execute(&mut db, &stmt).expect("executes").rows;
        base.sort();

        let index_cols: BTreeSet<&str> = (0..rng.gen_range(1..=2usize))
            .map(|_| cols[rng.gen_range(0..cols.len())])
            .collect();
        let cols_v: Vec<String> = index_cols.iter().map(|s| s.to_string()).collect();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix", "t", cols_v), &mut io)
            .expect("valid index");
        db.analyze_all();
        let mut indexed = engine.execute(&mut db, &stmt).expect("executes").rows;
        indexed.sort();

        assert_eq!(base, indexed, "index changed results for {sql}");
    }
}

#[test]
fn or_predicates_unchanged_by_indexes() {
    // Single-table OR: with per-branch indexes the planner may pick an
    // index-merge union; results must match the plain scan.
    let mut rng = StdRng::seed_from_u64(0x0A);
    let engine = Engine::new();
    for _ in 0..64 {
        let mut db = int_table(&mut rng, &["a", "b"], 100, 20);
        let (v1, v2, v3) = (
            rng.gen_range(0..20i64),
            rng.gen_range(0..20i64),
            rng.gen_range(0..20i64),
        );
        let sql = format!("SELECT id FROM t WHERE (a = {v1} AND b = {v2}) OR b = {v3}");
        let stmt = parse_statement(&sql).expect("valid");
        let mut base = engine.execute(&mut db, &stmt).expect("executes").rows;
        base.sort();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .expect("valid");
        db.create_index(IndexDef::new("ix_b", "t", vec!["b".into()]), &mut io)
            .expect("valid");
        db.analyze_all();
        let mut indexed = engine.execute(&mut db, &stmt).expect("executes").rows;
        indexed.sort();
        assert_eq!(base, indexed);
    }
}

#[test]
fn order_by_limit_agrees_with_full_sort() {
    let mut rng = StdRng::seed_from_u64(0x0B);
    let engine = Engine::new();
    for _ in 0..64 {
        let mut db = int_table(&mut rng, &["a", "b"], 100, 50);
        let limit = rng.gen_range(1..20usize);
        let sql = format!("SELECT a, id FROM t ORDER BY a LIMIT {limit}");
        let stmt = parse_statement(&sql).expect("valid");
        let plain = engine.execute(&mut db, &stmt).expect("executes").rows;
        // With an order-providing index: early-termination path.
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .expect("valid index");
        db.analyze_all();
        let fast = engine.execute(&mut db, &stmt).expect("executes").rows;
        // `a` values must match position-wise (ties may reorder ids).
        assert_eq!(plain.len(), fast.len());
        for (p, f) in plain.iter().zip(&fast) {
            assert_eq!(&p[0], &f[0]);
        }
    }
}

// --------------------------------------------------------------- storage

#[test]
fn storage_accounting_is_consistent() {
    // Materialized size tracking must stay consistent through
    // insert/create/drop cycles.
    let mut rng = StdRng::seed_from_u64(0x5A);
    for _ in 0..50 {
        let n_rows = rng.gen_range(1..200usize);
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
            .expect("valid"),
        )
        .expect("fresh");
        let mut io = IoStats::new();
        for i in 0..n_rows as i64 {
            db.table_mut("t")
                .expect("exists")
                .insert(vec![Value::Int(i), Value::Int(i % 7)], &mut io)
                .expect("unique");
        }
        assert_eq!(db.total_secondary_index_bytes(), 0);
        db.create_index(IndexDef::new("ix", "t", vec!["a".into()]), &mut io)
            .expect("valid index");
        let size = db.total_secondary_index_bytes();
        assert!(size > 0);
        db.drop_index("t", "ix").expect("exists");
        assert_eq!(db.total_secondary_index_bytes(), 0);
    }
}

// ---------------------------------------------------------------- parser

#[test]
fn parser_never_panics_on_arbitrary_input() {
    // Any input must produce Ok or Err — never a panic.
    let mut rng = StdRng::seed_from_u64(0x9A51C);
    for _ in 0..512 {
        let len = rng.gen_range(0..=120usize);
        let input: String = (0..len)
            .map(|_| {
                // Printable-heavy mix with occasional arbitrary unicode.
                if rng.gen_bool(0.9) {
                    (rng.gen_range(0x20..0x7fu32) as u8) as char
                } else {
                    char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{fffd}')
                }
            })
            .collect();
        let _ = parse_statement(&input);
    }
}

#[test]
fn parser_never_panics_on_sql_like_soup() {
    const TOKENS: &[&str] = &[
        "SELECT", "FROM", "WHERE", "AND", "OR", "GROUP", "BY", "ORDER", "LIMIT", "(", ")", ",",
        "=", ">", "t", "x", "1", "'s'", "*", "IN", "NOT", "NULL",
    ];
    let mut rng = StdRng::seed_from_u64(0x500);
    for _ in 0..512 {
        let n = rng.gen_range(0..25usize);
        let sql = (0..n)
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = parse_statement(&sql);
    }
}

// ----------------------------------------------------------- sampled clones

#[test]
fn sample_is_subset_and_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xCA);
    for _ in 0..24 {
        let n_rows = rng.gen_range(10..400i64);
        let fraction: f64 = rng.gen::<f64>();
        let seed = rng.gen_range(0..1000u64);
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
            .expect("valid"),
        )
        .expect("fresh");
        let mut io = IoStats::new();
        for i in 0..n_rows {
            db.table_mut("t")
                .expect("exists")
                .insert(vec![Value::Int(i), Value::Int(i % 5)], &mut io)
                .expect("unique");
        }
        let s = db.sample(fraction, seed);
        let k = s.table("t").expect("exists").row_count();
        assert!(k <= n_rows as usize);
        // Every sampled row exists in the source (subset property).
        let mut io2 = IoStats::new();
        for row in s.table("t").expect("exists").scan_all(&mut io2) {
            let pk = vec![row[0].clone()];
            let mut io3 = IoStats::new();
            assert!(db
                .table("t")
                .expect("exists")
                .pk_lookup(&pk, &mut io3)
                .is_some());
        }
        // Same seed, same sample.
        let s2 = db.sample(fraction, seed);
        assert_eq!(k, s2.table("t").expect("exists").row_count());
    }
}

// ------------------------------------------------------ storage backends

/// Random insert / delete / update / range-scan sequences observe exactly
/// the same results on the disk-backed engine (paged heap + B+-trees) as
/// on the in-memory one — including secondary-index scans — and the disk
/// instance still matches after a close-and-reopen cycle.
#[test]
fn random_ops_are_identical_on_disk_and_memory_backends() {
    let dir = std::env::temp_dir().join(format!(
        "aim-prop-backend-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let schema = || {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Str),
            ],
            &["id"],
        )
        .unwrap()
    };
    let mut mem = Database::new();
    mem.create_table(schema()).unwrap();
    let mut disk = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    disk.create_table(schema()).unwrap();
    let mut io = IoStats::new();
    mem.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
        .unwrap();
    disk.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(0xD15C);
    let row = |pk: i64, rng: &mut StdRng| {
        vec![
            Value::Int(pk),
            Value::Int(rng.gen_range(0..40i64)),
            Value::Str(format!("s{}", rng.gen_range(0..1000u32))),
        ]
    };
    for round in 0..6 {
        for _ in 0..300 {
            let pk = rng.gen_range(0..800i64);
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    let r = row(pk, &mut rng);
                    let a = mem.table_mut("t").unwrap().insert(r.clone(), &mut io);
                    let b = disk.table_mut("t").unwrap().insert(r, &mut io);
                    assert_eq!(a.is_ok(), b.is_ok(), "insert({pk}) diverged");
                }
                6..=7 => {
                    let a = mem
                        .table_mut("t")
                        .unwrap()
                        .delete(&vec![Value::Int(pk)], &mut io)
                        .unwrap();
                    let b = disk
                        .table_mut("t")
                        .unwrap()
                        .delete(&vec![Value::Int(pk)], &mut io)
                        .unwrap();
                    assert_eq!(a, b, "delete({pk}) diverged");
                }
                _ => {
                    let r = row(pk, &mut rng);
                    let a = mem.table_mut("t").unwrap().update(
                        &vec![Value::Int(pk)],
                        r.clone(),
                        &mut io,
                    );
                    let b = disk
                        .table_mut("t")
                        .unwrap()
                        .update(&vec![Value::Int(pk)], r, &mut io);
                    assert_eq!(a.is_ok(), b.is_ok(), "update({pk}) diverged");
                }
            }
        }
        // Range scan over a random PK window plus a secondary-index
        // prefix scan: both backends must produce identical sequences.
        let lo = Value::Int(rng.gen_range(0..400i64));
        let hi = Value::Int(rng.gen_range(400..800i64));
        let mut mio = IoStats::new();
        let mut dio = IoStats::new();
        let m: Vec<_> = mem
            .table("t")
            .unwrap()
            .pk_range(&[], (Bound::Included(&lo), Bound::Excluded(&hi)), &mut mio)
            .into_iter()
            .cloned()
            .collect();
        let d: Vec<_> = disk
            .table("t")
            .unwrap()
            .pk_range(&[], (Bound::Included(&lo), Bound::Excluded(&hi)), &mut dio)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(m, d, "round {round}: pk_range [{lo:?},{hi:?}) diverged");

        let probe = Value::Int(rng.gen_range(0..40i64));
        let m: Vec<_> = mem
            .table("t")
            .unwrap()
            .index("ix_a")
            .unwrap()
            .scan_prefix_range(
                std::slice::from_ref(&probe),
                (Bound::Unbounded, Bound::Unbounded),
                &mut mio,
            )
            .into_iter()
            .cloned()
            .collect();
        let d: Vec<_> = disk
            .table("t")
            .unwrap()
            .index("ix_a")
            .unwrap()
            .scan_prefix_range(
                std::slice::from_ref(&probe),
                (Bound::Unbounded, Bound::Unbounded),
                &mut mio,
            )
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(m, d, "round {round}: index scan a={probe:?} diverged");
    }

    // Reopen the disk instance: the recovered working set must equal the
    // in-memory reference row for row and entry for entry.
    drop(disk);
    let disk = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    let mut mio = IoStats::new();
    let mut dio = IoStats::new();
    let m: Vec<_> = mem.table("t").unwrap().scan_all(&mut mio).cloned().collect();
    let d: Vec<_> = disk.table("t").unwrap().scan_all(&mut dio).cloned().collect();
    assert_eq!(m, d, "reopened disk table diverged from memory reference");
    assert_eq!(
        mem.table("t").unwrap().index("ix_a").unwrap().len(),
        disk.table("t").unwrap().index("ix_a").unwrap().len(),
        "reopened index cardinality diverged"
    );
    disk.check_consistency().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------ batched costing

fn assert_ranked_bit_identical(a: &[RankedCandidate], b: &[RankedCandidate]) {
    assert_eq!(a.len(), b.len(), "ranked lists differ in length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.candidate.name(), y.candidate.name());
        assert_eq!(x.size_bytes, y.size_bytes);
        assert_eq!(
            x.benefit.to_bits(),
            y.benefit.to_bits(),
            "benefit drifted for {}",
            x.candidate.name()
        );
        assert_eq!(
            x.maintenance.to_bits(),
            y.maintenance.to_bits(),
            "maintenance drifted for {}",
            x.candidate.name()
        );
    }
}

/// Execute each statement `n` times against `db`, recording into a fresh
/// monitor, then select the full observed workload (DML included).
fn observe_workload(db: &mut Database, runs: &[(String, usize)]) -> Vec<WorkloadQuery> {
    let engine = Engine::new();
    let mut m = WorkloadMonitor::new();
    for (sql, n) in runs {
        let stmt = parse_statement(sql).expect("valid");
        for _ in 0..*n {
            let out = engine.execute(db, &stmt).expect("executes");
            m.record(&stmt, &out);
        }
    }
    select_workload(
        &m,
        &SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 100,
            include_dml: true,
        },
    )
}

/// Batched what-if costing must be bit-identical to the per-config
/// reference path across randomized mixed (SELECT + DML) workloads —
/// same candidates, same benefits, same maintenance, to the last bit.
#[test]
fn batched_ranking_matches_per_config_on_random_workloads() {
    let cols = ["a", "b", "c"];
    let ops = ["=", ">", "<", ">="];
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let cm = CostModel::default();
    for case in 0..8 {
        let mut db = int_table(&mut rng, &cols, 150, 25);
        let n_stmts = rng.gen_range(3..=6usize);
        let mut runs: Vec<(String, usize)> = Vec::new();
        for _ in 0..n_stmts {
            let sql = if rng.gen_bool(0.7) {
                let pred = |rng: &mut StdRng| {
                    format!(
                        "{} {} {}",
                        cols[rng.gen_range(0..cols.len())],
                        ops[rng.gen_range(0..ops.len())],
                        rng.gen_range(0..25i64)
                    )
                };
                let p1 = pred(&mut rng);
                if rng.gen_bool(0.5) {
                    let joiner = if rng.gen_bool(0.5) { "AND" } else { "OR" };
                    format!("SELECT id FROM t WHERE {p1} {joiner} {}", pred(&mut rng))
                } else {
                    format!("SELECT id FROM t WHERE {p1}")
                }
            } else {
                format!(
                    "UPDATE t SET {} = {} WHERE id = {}",
                    cols[rng.gen_range(0..cols.len())],
                    rng.gen_range(0..25i64),
                    rng.gen_range(0..150i64)
                )
            };
            runs.push((sql, rng.gen_range(1..=4usize)));
        }
        let w = observe_workload(&mut db, &runs);
        if w.is_empty() {
            continue;
        }
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        if cands.is_empty() {
            continue;
        }
        // Cache off so both paths genuinely plan every config; equality
        // must come from the costing itself, not shared memoization.
        let cache = aim_exec::whatif::global();
        cache.set_enabled(false);
        let batched = rank_candidates_with(&db, &w, &cands, &cm, 1);
        let sequential = rank_candidates_unbatched(&db, &w, &cands, &cm, 1);
        cache.set_enabled(true);
        assert_ranked_bit_identical(&sequential, &batched);
        // Same property under the parallel ranking path.
        let parallel = rank_candidates_with(&db, &w, &cands, &cm, 4);
        assert_ranked_bit_identical(&sequential, &parallel);
        assert!(!batched.is_empty() || case > 0, "degenerate sweep");
    }
}

// ------------------------------------------------------------------ jsonv

use aim_telemetry::jsonv::{self, Json};
use std::collections::BTreeMap;

/// Serializes a [`Json`] value the way the workspace's hand-rolled
/// emitters do: `\u` escapes for control characters, `\"`/`\\` for the
/// two specials, everything else verbatim UTF-8.
fn emit_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&format!("{n}")),
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json(&Json::Str(k.clone()), out);
                out.push(':');
                emit_json(val, out);
            }
            out.push('}');
        }
    }
}

/// A random string drawn from a palette that stresses every escape class:
/// the two JSON specials, whitespace escapes, raw control characters,
/// multi-byte UTF-8, and the solidus.
fn random_string(rng: &mut StdRng) -> String {
    const PALETTE: &[&str] = &[
        "a", "Z", "0", " ", "\"", "\\", "\n", "\r", "\t", "\u{0001}", "\u{001f}", "/", "é", "λ",
        "漢", "🦀", "\\n", "\"quoted\"",
    ];
    let len = rng.gen_range(0..8usize);
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

/// A random document, depth-bounded so the recursive parser stays well
/// inside stack limits while still nesting containers inside containers.
fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0..2) == 1),
        // Exactly representable in binary, so Display output reparses to
        // the identical f64.
        2 => Json::Num(rng.gen_range(-64_000i64..64_000) as f64 / 8.0),
        3 => Json::Str(random_string(rng)),
        4 => {
            let n = rng.gen_range(0..4usize);
            Json::Arr((0..n).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..4usize);
            let mut map = BTreeMap::new();
            for _ in 0..n {
                map.insert(random_string(rng), random_json(rng, depth - 1));
            }
            Json::Obj(map)
        }
    }
}

#[test]
fn jsonv_roundtrips_random_documents() {
    let mut rng = StdRng::seed_from_u64(0x150_0AF);
    for _ in 0..500 {
        let doc = random_json(&mut rng, 4);
        let mut text = String::new();
        emit_json(&doc, &mut text);
        let parsed = jsonv::parse(&text)
            .unwrap_or_else(|e| panic!("emitted JSON failed to parse: {e} in {text}"));
        assert_eq!(parsed, doc, "round trip diverged for {text}");
    }
}

#[test]
fn jsonv_parses_deep_nesting() {
    // 200 levels of arrays and of single-key objects: far deeper than any
    // artifact we emit, still far from the thread's stack limit.
    let deep_arr = format!("{}1{}", "[".repeat(200), "]".repeat(200));
    let mut v = jsonv::parse(&deep_arr).expect("deep array parses");
    for _ in 0..200 {
        v = v.as_arr().expect("array level")[0].clone();
    }
    assert_eq!(v, Json::Num(1.0));

    let deep_obj = format!("{}true{}", "{\"k\":".repeat(200), "}".repeat(200));
    let mut v = jsonv::parse(&deep_obj).expect("deep object parses");
    for _ in 0..200 {
        v = v.get("k").expect("object level").clone();
    }
    assert_eq!(v, Json::Bool(true));
}

#[test]
fn jsonv_rejects_malformed_documents() {
    let cases: &[(&str, &str)] = &[
        ("{} x", "trailing garbage after an object"),
        ("1 2", "two top-level values"),
        ("[1,2]]", "unbalanced close bracket"),
        ("\"\\x\"", "unknown escape"),
        ("\"\\u12\"", "short unicode escape"),
        ("\"\\u12zz\"", "non-hex unicode escape"),
        ("\"unterminated", "unterminated string"),
        ("{k:1}", "unquoted object key"),
        ("[1,]", "trailing comma in array"),
        ("{\"a\":1,}", "trailing comma in object"),
        ("-", "lone minus sign"),
        ("tru", "truncated literal"),
        ("", "empty document"),
        ("[1 2]", "missing array comma"),
        ("{\"a\" 1}", "missing object colon"),
    ];
    for (doc, why) in cases {
        let err = jsonv::parse(doc)
            .err()
            .unwrap_or_else(|| panic!("accepted malformed input ({why}): {doc:?}"));
        assert!(
            err.offset <= doc.len(),
            "error offset {} outside document ({why})",
            err.offset
        );
    }
}
