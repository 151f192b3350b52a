//! Golden execution digest: every statement shape of the TPC-H, JOB,
//! TPC-DS, join-heavy and production generators, executed on the untuned
//! database and on one carrying a fixed set of secondary indexes (the
//! tuned configuration).
//!
//! Per statement the golden file records an FNV-1a digest of the result
//! rows in order, every `IoStats` field, the measured cost's bits, the
//! affected-row count and the chosen plan's access summary. An executor
//! change that alters any of them — a row, a charged page, a cost bit —
//! shows up as a drifted line naming the statement.
//!
//! The tuned configuration is the set of indexes AIM recommended with an
//! unlimited budget when the golden file was blessed, checked in below, so
//! a change to candidate generation or selection does not drift the
//! digest: only a change to execution, planning, costing or storage can.
//!
//! The golden file lives in `tests/golden/`; regenerate it intentionally
//! with `BLESS=1 cargo test -p aim-integration --test exec_digest`.

use aim_core::WeightedQuery;
use aim_exec::{Engine, ExecOutcome};
use aim_sql::Statement;
use aim_storage::{Database, IndexDef, IoStats, Value};
use aim_workloads::job::{self, JobConfig};
use aim_workloads::join_heavy::{self, JoinHeavyConfig};
use aim_workloads::production;
use aim_workloads::tpcds::{self, TpcdsConfig};
use aim_workloads::tpch::{self, TpchConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// 64-bit FNV-1a: stable across platforms, toolchains and runs, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Int(i) => {
                self.bytes(&[2]);
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.bytes(&[3]);
                self.u64(f.to_bits());
            }
            Value::Str(s) => {
                self.bytes(&[4]);
                self.str(s);
            }
            Value::MaxKey => self.bytes(&[5]),
        }
    }

    fn io(&mut self, io: &IoStats) {
        let IoStats {
            pages_read,
            seeks,
            rows_read,
            rows_written,
            pages_written,
            pages_faulted,
        } = *io;
        for v in [
            pages_read,
            seeks,
            rows_read,
            rows_written,
            pages_written,
            pages_faulted,
        ] {
            self.u64(v);
        }
    }
}

fn outcome_digest(out: &Result<ExecOutcome, aim_exec::ExecError>) -> u64 {
    let mut h = Fnv::new();
    match out {
        Ok(o) => {
            h.u64(o.rows.len() as u64);
            for row in &o.rows {
                h.u64(row.len() as u64);
                row.iter().for_each(|v| h.value(v));
            }
            h.io(&o.io);
            h.u64(o.cost.to_bits());
            h.u64(o.affected);
            h.str(&o.plan.access_summary());
        }
        Err(e) => h.str(&format!("error: {e}")),
    }
    h.0
}

/// Executes `stmts` in order on `db`, appending one digest line each.
fn digest_run(
    out: &mut String,
    workload: &str,
    config: &str,
    db: &mut Database,
    stmts: &[Statement],
) {
    let engine = Engine::new();
    for (i, stmt) in stmts.iter().enumerate() {
        let res = engine.execute(db, stmt);
        let shape = match &res {
            Ok(o) => format!(
                "rows={} read={}",
                o.rows.len().max(o.affected as usize),
                o.io.rows_read
            ),
            Err(_) => "error".to_string(),
        };
        writeln!(
            out,
            "{workload} {config} {i:03} {shape} {:016x}",
            outcome_digest(&res)
        )
        .unwrap();
    }
}

/// The tuned configuration of each workload, one `table: columns` index
/// per line in creation order. Each index is named as AIM names it,
/// `aim_<table>_<columns>`, because the plan summary records the name.
const TPCH_INDEXES: &str = "
orders: o_custkey, o_orderpriority
lineitem: l_partkey, l_quantity, l_extendedprice
lineitem: l_partkey, l_shipdate, l_discount, l_extendedprice
customer: c_nationkey, c_acctbal, c_custkey, c_name
orders: o_custkey, o_orderdate, o_orderkey, o_shippriority
lineitem: l_suppkey, l_extendedprice, l_shipdate
lineitem: l_suppkey, l_shipdate, l_extendedprice
lineitem: l_orderkey, l_suppkey, l_extendedprice
lineitem: l_suppkey, l_orderkey, l_receiptdate, l_commitdate
orders: o_totalprice, o_orderkey, o_orderdate, o_custkey
lineitem: l_discount, l_extendedprice, l_shipdate, l_quantity
lineitem: l_orderkey, l_returnflag, l_extendedprice
partsupp: ps_suppkey, ps_availqty, ps_supplycost, ps_partkey
lineitem: l_shipmode, l_commitdate, l_shipdate, l_receiptdate, l_orderkey
part: p_size, p_type
orders: o_orderdate, o_orderkey, o_orderpriority
lineitem: l_orderkey, l_quantity
lineitem: l_shipdate, l_discount, l_extendedprice, l_quantity, l_returnflag, l_linestatus
partsupp: ps_partkey, ps_supplycost
";

const JOB_INDEXES: &str = "
movie_keyword: keyword_id, movie_id
movie_companies: company_id, company_type_id, movie_id
movie_info: info_type_id, info, movie_id
";

const TPCDS_INDEXES: &str = "
store_sales: date_id, sales_price
store_sales: item_id, promo_id, quantity
store_sales: item_id, date_id, net_profit
web_sales: item_id, quantity, id, sales_price
store_sales: customer_id, store_id
";

const JOIN_HEAVY_INDEXES: &str = "
parent: fk_g
parent: p1, p2, id, pval
child: a, fk_p
child: a, b, fk_p
child: b, fk_d, fk_p
child: a, b, cc, id, val
";

const PROD_D_INDEXES: &str = "
t0: c0, id, val
t3: c2, id, val
t0: c1, c2, c0, id, val
t14: c1, fk
t13: c1, fk
t2: c1, fk
t1: c2, c0, c1, id, val
t11: c0, c2, id, val
t10: c2, c3, id, val
t4: c1, c0, c3, id, val
t6: c1, fk
t6: c0, c2, c3, id, val
t7: c1, c4, c3, id, val
t14: c0, c2, c3, id, val
t11: c0, fk
t2: c4, fk
t13: c1, c0, id, val, c2
t6: c3, id, val
t7: c2, fk
t9: c1, c0, id, val, c2
t8: c0, c1, c2, id, val
t2: c4, c0, c1, id, val
t12: c1, fk
t3: c0, id, val
t8: c0, fk
t12: c1, c0, id, val, c2
t5: c4, c3, c2, id, val
t9: c1, c2, c0, id, val
t13: c2, fk
t13: c1, c2, c0, id, val
t10: c2, fk
t12: c1, c2, c0, id, val
t0: c2, c1, c0, id, val
t4: c3, id, val
t1: c0, c2, c1, id, val
t6: c0, fk
t5: c3, c4, c2, id, val
";

/// Creates the indexes listed in `spec` on `db` and refreshes statistics.
fn apply_index_spec(db: &mut Database, spec: &str) {
    let mut io = IoStats::new();
    for line in spec.lines().filter(|l| !l.is_empty()) {
        let (table, cols) = line.split_once(": ").expect("`table: columns`");
        let columns: Vec<String> = cols.split(", ").map(str::to_string).collect();
        let name = format!("aim_{table}_{}", columns.join("_"));
        db.create_index(IndexDef::new(name, table, columns), &mut io)
            .unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    db.analyze_all();
}

/// Digests `stmts` on a fresh `build()` database, then on another carrying
/// the indexes of `index_spec`.
fn digest_workload(
    out: &mut String,
    name: &str,
    build: impl Fn() -> Database,
    workload: &[WeightedQuery],
    index_spec: &str,
) {
    let stmts: Vec<Statement> = workload.iter().map(|w| w.statement.clone()).collect();
    let mut db = build();
    digest_run(out, name, "untuned", &mut db, &stmts);

    let mut db = build();
    apply_index_spec(&mut db, index_spec);
    digest_run(out, name, "tuned", &mut db, &stmts);
}

/// Every variant of every spec, each weighted by its share of the spec.
fn all_variants(specs: Vec<aim_workloads::QuerySpec>) -> Vec<WeightedQuery> {
    specs
        .into_iter()
        .flat_map(|s| {
            let w = s.weight / s.variants.len() as f64;
            s.variants
                .into_iter()
                .map(move |v| WeightedQuery::new(v, w))
        })
        .collect()
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BLESS=1",
            path.display()
        )
    });
    let drifted: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == actual.lines().count(),
        "execution digest drifted from {} ({} of {} lines differ, {} vs {} lines):\n{}\n\
         if intended, re-bless with BLESS=1",
        path.display(),
        drifted.len(),
        expected.lines().count(),
        expected.lines().count(),
        actual.lines().count(),
        drifted.join("\n")
    );
}

#[test]
fn execution_digest_matches_golden() {
    let mut out = String::new();

    let cfg = TpchConfig {
        scale: 0.0005,
        seed: 5,
    };
    digest_workload(
        &mut out,
        "tpch",
        || tpch::build_database(&cfg),
        &tpch::weighted_workload(7),
        TPCH_INDEXES,
    );

    let cfg = JobConfig {
        titles: 300,
        seed: 3,
    };
    digest_workload(
        &mut out,
        "job",
        || job::build_database(&cfg),
        &job::weighted_workload(7),
        JOB_INDEXES,
    );

    let cfg = TpcdsConfig {
        sales_rows: 800,
        seed: 9,
    };
    digest_workload(
        &mut out,
        "tpcds",
        || tpcds::build_database(&cfg),
        &tpcds::weighted_workload(7),
        TPCDS_INDEXES,
    );

    let cfg = JoinHeavyConfig {
        child_rows: 1000,
        parent_rows: 200,
        grand_rows: 40,
        dim_rows: 50,
        seed: 5,
    };
    digest_workload(
        &mut out,
        "join_heavy",
        || join_heavy::build_database(&cfg),
        &join_heavy::weighted(9),
        JOIN_HEAVY_INDEXES,
    );

    // Product D: write-heavy, so the run interleaves DML with reads.
    let profile = production::profiles()
        .into_iter()
        .find(|p| p.name == "Product D")
        .expect("Product D profile");
    let workload = all_variants(production::build(&profile).specs);
    digest_workload(
        &mut out,
        "prod_d",
        || production::build(&profile).db,
        &workload,
        PROD_D_INDEXES,
    );

    assert_golden("exec_digest.txt", &out);
}
