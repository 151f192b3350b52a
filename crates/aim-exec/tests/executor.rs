//! End-to-end executor tests: SQL in, rows out, with physical accounting.

use aim_exec::{AccessPath, Engine};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IndexDef, IoStats, TableSchema, Value};

/// orders(id, customer_id, status, amount, region) with deterministic data.
fn orders_db(n: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer_id", ColumnType::Int),
                ColumnDef::new("status", ColumnType::Str),
                ColumnDef::new("amount", ColumnType::Float),
                ColumnDef::new("region", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    let statuses = ["open", "shipped", "closed"];
    for i in 0..n {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![
                    Value::Int(i),
                    Value::Int(i % 50),
                    Value::Str(statuses[(i % 3) as usize].to_string()),
                    Value::Float((i % 97) as f64 * 1.5),
                    Value::Int(i % 7),
                ],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    db
}

fn customers_db(db: &mut Database, n: i64) {
    db.create_table(
        TableSchema::new(
            "customers",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("tier", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..n {
        db.table_mut("customers")
            .unwrap()
            .insert(
                vec![
                    Value::Int(i),
                    Value::Str(format!("cust{i}")),
                    Value::Int(i % 4),
                ],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
}

fn run(db: &mut Database, sql: &str) -> aim_exec::ExecOutcome {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    engine.execute(db, &stmt).unwrap()
}

#[test]
fn point_query_via_pk() {
    let mut db = orders_db(1000);
    let out = run(&mut db, "SELECT id, amount FROM orders WHERE id = 42");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(42));
    // One seek, not a scan.
    assert!(out.io.rows_read <= 2, "rows_read = {}", out.io.rows_read);
}

#[test]
fn equality_filter_correct_with_and_without_index() {
    let mut db = orders_db(3000);
    let base = run(&mut db, "SELECT id FROM orders WHERE customer_id = 7");
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    let indexed = run(&mut db, "SELECT id FROM orders WHERE customer_id = 7");
    let mut a = base.rows.clone();
    let mut b = indexed.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(indexed.io.rows_read < base.io.rows_read / 5);
}

#[test]
fn index_chosen_plan_reported() {
    let mut db = orders_db(3000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    let out = run(&mut db, "SELECT id FROM orders WHERE customer_id = 7");
    assert!(matches!(out.plan.steps[0].path, AccessPath::IndexScan(_)));
    let used = out.plan.used_indexes();
    assert_eq!(used.len(), 1);
}

#[test]
fn range_and_prefix_composite_index() {
    let mut db = orders_db(3000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new(
            "ix_cr",
            "orders",
            vec!["customer_id".into(), "region".into()],
        ),
        &mut io,
    )
    .unwrap();
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id = 7 AND region > 2",
    );
    let expected: Vec<i64> = (0..3000)
        .filter(|i| i % 50 == 7 && i % 7 > 2)
        .collect();
    assert_eq!(out.rows.len(), expected.len());
}

#[test]
fn in_list_probes() {
    let mut db = orders_db(2000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id IN (3, 17, 31)",
    );
    let expected = (0..2000).filter(|i| [3, 17, 31].contains(&(i % 50))).count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn join_two_tables() {
    let mut db = orders_db(1000);
    customers_db(&mut db, 50);
    let out = run(
        &mut db,
        "SELECT o.id, c.name FROM orders o, customers c \
         WHERE o.customer_id = c.id AND c.tier = 2 AND o.region = 1",
    );
    let expected = (0..1000i64)
        .filter(|i| (i % 50) % 4 == 2 && i % 7 == 1)
        .count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn join_uses_pk_probe_on_inner() {
    // The inner table must be large enough that repeated full scans lose
    // to PK probes (tiny inner tables legitimately favour scans).
    let mut db = orders_db(1000);
    customers_db(&mut db, 5000);
    let out = run(
        &mut db,
        "SELECT o.id, c.name FROM orders o, customers c WHERE o.customer_id = c.id AND o.id < 10",
    );
    assert_eq!(out.rows.len(), 10);
    // The inner customers access must be index probes, not 10 full scans.
    let inner = &out.plan.steps[1];
    assert!(
        matches!(inner.path, AccessPath::IndexScan(_)),
        "{:?}",
        inner.path
    );
}

#[test]
fn three_way_join() {
    let mut db = orders_db(500);
    customers_db(&mut db, 50);
    db.create_table(
        TableSchema::new(
            "regions",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..7 {
        db.table_mut("regions")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Str(format!("region{i}"))],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    let out = run(
        &mut db,
        "SELECT o.id, c.name, r.name FROM orders o, customers c, regions r \
         WHERE o.customer_id = c.id AND o.region = r.id AND r.id = 3 AND c.tier = 0",
    );
    let expected = (0..500i64)
        .filter(|i| i % 7 == 3 && (i % 50) % 4 == 0)
        .count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn explicit_join_syntax_equivalent() {
    let mut db = orders_db(500);
    customers_db(&mut db, 50);
    let a = run(
        &mut db,
        "SELECT o.id FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.tier = 1",
    );
    let b = run(
        &mut db,
        "SELECT o.id FROM orders o, customers c WHERE o.customer_id = c.id AND c.tier = 1",
    );
    let (mut x, mut y) = (a.rows.clone(), b.rows.clone());
    x.sort();
    y.sort();
    assert_eq!(x, y);
}

#[test]
fn group_by_count_sum() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region",
    );
    assert_eq!(out.rows.len(), 7);
    // Region 0 appears ceil(300/7)=43 times for i%7==0.
    let count0 = (0..300).filter(|i| i % 7 == 0).count() as i64;
    assert_eq!(out.rows[0][1], Value::Int(count0));
    let sum0: f64 = (0..300i64)
        .filter(|i| i % 7 == 0)
        .map(|i| (i % 97) as f64 * 1.5)
        .sum();
    match &out.rows[0][2] {
        Value::Float(f) => assert!((f - sum0).abs() < 1e-6),
        other => panic!("{other:?}"),
    }
}

#[test]
fn aggregate_without_group_by() {
    let mut db = orders_db(100);
    let out = run(&mut db, "SELECT COUNT(*), MIN(id), MAX(id) FROM orders");
    assert_eq!(
        out.rows,
        vec![vec![Value::Int(100), Value::Int(0), Value::Int(99)]]
    );
}

#[test]
fn having_filters_groups() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT customer_id, COUNT(*) FROM orders GROUP BY customer_id HAVING COUNT(*) > 5",
    );
    for row in &out.rows {
        match row[1] {
            Value::Int(c) => assert!(c > 5),
            _ => panic!(),
        }
    }
}

#[test]
fn having_with_aggregate_inside_between_and_in() {
    // Aggregate calls nested under BETWEEN / IN / IS NULL resolve to the
    // group's aggregate values like those under comparisons do.
    let mut db = orders_db(300);
    let plain = run(
        &mut db,
        "SELECT customer_id, COUNT(*) FROM orders GROUP BY customer_id \
         HAVING COUNT(*) >= 6 AND COUNT(*) <= 8",
    );
    let between = run(
        &mut db,
        "SELECT customer_id, COUNT(*) FROM orders GROUP BY customer_id \
         HAVING COUNT(*) BETWEEN 6 AND 8",
    );
    assert!(!plain.rows.is_empty());
    assert_eq!(between.rows, plain.rows);
    let listed = run(
        &mut db,
        "SELECT customer_id, COUNT(*) IN (6, 7, 8), SUM(amount) IS NULL FROM orders \
         GROUP BY customer_id HAVING COUNT(*) IN (6, 7, 8)",
    );
    assert_eq!(listed.rows.len(), plain.rows.len());
    for row in &listed.rows {
        assert_eq!(row[1], Value::Bool(true));
        assert_eq!(row[2], Value::Bool(false));
    }
}

#[test]
fn order_by_desc_and_limit() {
    let mut db = orders_db(100);
    let out = run(&mut db, "SELECT id FROM orders ORDER BY id DESC LIMIT 5");
    let ids: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(
        ids,
        vec![
            Value::Int(99),
            Value::Int(98),
            Value::Int(97),
            Value::Int(96),
            Value::Int(95)
        ]
    );
}

#[test]
fn order_by_limit_via_index_reads_few_rows() {
    let mut db = orders_db(5000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_region", "orders", vec!["region".into()]),
        &mut io,
    )
    .unwrap();
    let out = run(
        &mut db,
        "SELECT region, id FROM orders ORDER BY region LIMIT 10",
    );
    assert_eq!(out.rows.len(), 10);
    assert!(out.plan.order_via_index);
    assert!(
        out.io.rows_read < 100,
        "early termination expected, read {}",
        out.io.rows_read
    );
    // All returned regions must be the minimum region value.
    assert!(out.rows.iter().all(|r| r[0] == Value::Int(0)));
}

#[test]
fn distinct_dedupes() {
    let mut db = orders_db(100);
    let out = run(&mut db, "SELECT DISTINCT region FROM orders");
    assert_eq!(out.rows.len(), 7);
}

#[test]
fn or_union_correctness() {
    let mut db = orders_db(2000);
    let base = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id = 3 OR region = 5",
    );
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_cust", "orders", vec!["customer_id".into()]),
        &mut io,
    )
    .unwrap();
    db.create_index(
        IndexDef::new("ix_region", "orders", vec!["region".into()]),
        &mut io,
    )
    .unwrap();
    let indexed = run(
        &mut db,
        "SELECT id FROM orders WHERE customer_id = 3 OR region = 5",
    );
    let (mut a, mut b) = (base.rows.clone(), indexed.rows.clone());
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn covering_index_avoids_base_lookups() {
    let mut db = orders_db(5000);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new(
            "ix_cov",
            "orders",
            vec!["customer_id".into(), "region".into()],
        ),
        &mut io,
    )
    .unwrap();
    // (customer_id, region) + PK id covers the query.
    let out = run(
        &mut db,
        "SELECT customer_id, region, id FROM orders WHERE customer_id = 9",
    );
    let expected = (0..5000).filter(|i| i % 50 == 9).count();
    assert_eq!(out.rows.len(), expected);
    match &out.plan.steps[0].path {
        AccessPath::IndexScan(ix) => assert!(ix.covering),
        other => panic!("{other:?}"),
    }
    // Covering: roughly one seek, no per-row base lookups.
    assert!(out.io.seeks < 5, "seeks = {}", out.io.seeks);
}

#[test]
fn insert_update_delete_roundtrip() {
    let mut db = orders_db(10);
    let ins = run(
        &mut db,
        "INSERT INTO orders (id, customer_id, status, amount, region) \
         VALUES (100, 1, 'open', 5.0, 2), (101, 2, 'open', 6.0, 3)",
    );
    assert_eq!(ins.affected, 2);
    assert_eq!(db.table("orders").unwrap().row_count(), 12);

    let upd = run(&mut db, "UPDATE orders SET region = 6 WHERE id = 100");
    assert_eq!(upd.affected, 1);
    let check = run(&mut db, "SELECT region FROM orders WHERE id = 100");
    assert_eq!(check.rows[0][0], Value::Int(6));

    let del = run(&mut db, "DELETE FROM orders WHERE id >= 100");
    assert_eq!(del.affected, 2);
    assert_eq!(db.table("orders").unwrap().row_count(), 10);
}

#[test]
fn update_with_expression_rhs() {
    let mut db = orders_db(10);
    run(&mut db, "UPDATE orders SET region = region + 10 WHERE id = 3");
    let check = run(&mut db, "SELECT region FROM orders WHERE id = 3");
    assert_eq!(check.rows[0][0], Value::Int(3 + 10));
}

#[test]
fn dml_maintains_indexes() {
    let mut db = orders_db(100);
    let mut io = IoStats::new();
    db.create_index(
        IndexDef::new("ix_region", "orders", vec!["region".into()]),
        &mut io,
    )
    .unwrap();
    run(
        &mut db,
        "INSERT INTO orders (id, customer_id, status, amount, region) VALUES (500, 1, 'x', 1.0, 99)",
    );
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 99");
    assert_eq!(out.rows.len(), 1);
    run(&mut db, "DELETE FROM orders WHERE region = 99");
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 99");
    assert!(out.rows.is_empty());
}

#[test]
fn ddl_via_sql() {
    let mut db = Database::new();
    run(
        &mut db,
        "CREATE TABLE items (id BIGINT, name VARCHAR(32), price DOUBLE, PRIMARY KEY (id))",
    );
    run(&mut db, "INSERT INTO items (id, name, price) VALUES (1, 'a', 2.5)");
    run(&mut db, "CREATE INDEX ix_name ON items (name)");
    assert!(db.table("items").unwrap().index("ix_name").is_some());
    run(&mut db, "DROP INDEX ix_name ON items");
    assert!(db.table("items").unwrap().index("ix_name").is_none());
}

#[test]
fn select_constant_without_from() {
    let mut db = Database::new();
    let out = run(&mut db, "SELECT 1 + 2");
    assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn between_and_like_filters() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE amount BETWEEN 10.0 AND 20.0 AND status LIKE 'ship%'",
    );
    let expected = (0..300i64)
        .filter(|i| {
            let amount = (i % 97) as f64 * 1.5;
            (10.0..=20.0).contains(&amount) && i % 3 == 1
        })
        .count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn cost_and_io_are_positive() {
    let mut db = orders_db(500);
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 3");
    assert!(out.cost > 0.0);
    assert!(out.io.rows_read > 0);
    assert_eq!(out.rows_sent(), out.rows.len() as u64);
}

#[test]
fn self_join_with_aliases() {
    let mut db = orders_db(50);
    let out = run(
        &mut db,
        "SELECT a.id, b.id FROM orders a, orders b \
         WHERE a.customer_id = b.customer_id AND a.id = 0 AND b.id > 0",
    );
    // customer 0: ids 0 and 50.. but only 50 rows, so i%50==0 -> just id 0.
    assert!(out.rows.is_empty());
    let out = run(
        &mut db,
        "SELECT a.id, b.id FROM orders a, orders b \
         WHERE a.customer_id = b.customer_id AND a.id = 0 AND b.id <> 0",
    );
    assert!(out.rows.is_empty());
}

#[test]
fn order_by_aggregate() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT customer_id, COUNT(*) FROM orders GROUP BY customer_id \
         ORDER BY COUNT(*) DESC LIMIT 3",
    );
    assert_eq!(out.rows.len(), 3);
    // Counts must be non-increasing.
    let counts: Vec<i64> = out
        .rows
        .iter()
        .map(|r| match r[1] {
            Value::Int(c) => c,
            _ => panic!(),
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
}

#[test]
fn having_with_order_by_and_limit() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT region, SUM(amount) FROM orders GROUP BY region \
         HAVING COUNT(*) > 10 ORDER BY region LIMIT 4",
    );
    assert!(out.rows.len() <= 4);
    let regions: Vec<Value> = out.rows.iter().map(|r| r[0].clone()).collect();
    let mut sorted = regions.clone();
    sorted.sort();
    assert_eq!(regions, sorted);
}

#[test]
fn count_distinct() {
    let mut db = orders_db(300);
    let out = run(&mut db, "SELECT COUNT(DISTINCT region) FROM orders");
    assert_eq!(out.rows, vec![vec![Value::Int(7)]]);
}

#[test]
fn avg_handles_nulls_and_empty_groups() {
    let mut db = orders_db(10);
    // No rows match: aggregate over an empty set.
    let out = run(&mut db, "SELECT COUNT(*), SUM(amount), AVG(amount) FROM orders WHERE id > 9999");
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(0));
    assert_eq!(out.rows[0][1], Value::Null);
    assert_eq!(out.rows[0][2], Value::Null);
}

#[test]
fn in_list_on_strings() {
    let mut db = orders_db(300);
    let out = run(
        &mut db,
        "SELECT id FROM orders WHERE status IN ('open', 'closed')",
    );
    let expected = (0..300).filter(|i| i % 3 != 1).count();
    assert_eq!(out.rows.len(), expected);
}

#[test]
fn limit_zero_returns_nothing() {
    let mut db = orders_db(50);
    let out = run(&mut db, "SELECT id FROM orders LIMIT 0");
    assert!(out.rows.is_empty());
}

#[test]
fn composite_pk_point_and_prefix() {
    let mut db = Database::new();
    run(
        &mut db,
        "CREATE TABLE items (order_id BIGINT, line BIGINT, qty BIGINT, PRIMARY KEY (order_id, line))",
    );
    for o in 0..300 {
        for l in 0..3 {
            run(
                &mut db,
                &format!("INSERT INTO items (order_id, line, qty) VALUES ({o}, {l}, {})", o + l),
            );
        }
    }
    db.analyze_all();
    // Full composite key: point lookup.
    let out = run(&mut db, "SELECT qty FROM items WHERE order_id = 7 AND line = 2");
    assert_eq!(out.rows, vec![vec![Value::Int(9)]]);
    assert!(out.io.rows_read <= 2);
    // PK prefix: range over one order.
    let out = run(&mut db, "SELECT line FROM items WHERE order_id = 7");
    assert_eq!(out.rows.len(), 3);
    assert!(out.io.rows_read <= 6, "prefix scan read {}", out.io.rows_read);
}

#[test]
fn group_by_two_columns() {
    let mut db = orders_db(120);
    let out = run(
        &mut db,
        "SELECT region, status, COUNT(*) FROM orders GROUP BY region, status ORDER BY region, status",
    );
    // 7 regions x 3 statuses, all populated at 120 rows.
    assert_eq!(out.rows.len(), 21);
    let total: i64 = out
        .rows
        .iter()
        .map(|r| match r[2] {
            Value::Int(c) => c,
            _ => panic!(),
        })
        .sum();
    assert_eq!(total, 120);
}

#[test]
fn where_on_aggregult_free_expression_arithmetic() {
    let mut db = orders_db(100);
    let a = run(&mut db, "SELECT id FROM orders WHERE id + 1 = 50");
    assert_eq!(a.rows, vec![vec![Value::Int(49)]]);
    let b = run(&mut db, "SELECT id FROM orders WHERE id % 10 = 3 AND id < 50");
    assert_eq!(b.rows.len(), 5);
}

#[test]
fn delete_everything_then_empty_scans() {
    let mut db = orders_db(40);
    let del = run(&mut db, "DELETE FROM orders WHERE id >= 0");
    assert_eq!(del.affected, 40);
    let out = run(&mut db, "SELECT COUNT(*) FROM orders");
    assert_eq!(out.rows, vec![vec![Value::Int(0)]]);
    let out = run(&mut db, "SELECT id FROM orders WHERE region = 1");
    assert!(out.rows.is_empty());
}

#[test]
fn update_affecting_zero_rows() {
    let mut db = orders_db(10);
    let out = run(&mut db, "UPDATE orders SET region = 1 WHERE id = 12345");
    assert_eq!(out.affected, 0);
}

#[test]
fn nine_table_join_uses_greedy_order() {
    // More tables than the DP limit (8) exercises the greedy join-order
    // search; correctness must be unaffected.
    let mut db = Database::new();
    run(
        &mut db,
        "CREATE TABLE hub (id BIGINT, v BIGINT, PRIMARY KEY (id))",
    );
    for t in 0..8 {
        run(
            &mut db,
            &format!("CREATE TABLE s{t} (id BIGINT, hub_id BIGINT, w BIGINT, PRIMARY KEY (id))"),
        );
    }
    for i in 0..30 {
        run(&mut db, &format!("INSERT INTO hub (id, v) VALUES ({i}, {})", i % 5));
        for t in 0..8 {
            run(
                &mut db,
                &format!("INSERT INTO s{t} (id, hub_id, w) VALUES ({i}, {i}, {})", (i + t) % 3),
            );
        }
    }
    db.analyze_all();
    let joins: Vec<String> = (0..8).map(|t| format!("s{t}.hub_id = hub.id")).collect();
    let sql = format!(
        "SELECT hub.id FROM hub, s0, s1, s2, s3, s4, s5, s6, s7 WHERE {} AND hub.v = 2",
        joins.join(" AND ")
    );
    let out = run(&mut db, &sql);
    let expected = (0..30).filter(|i| i % 5 == 2).count();
    assert_eq!(out.rows.len(), expected);
    assert_eq!(out.plan.steps.len(), 9);
}
