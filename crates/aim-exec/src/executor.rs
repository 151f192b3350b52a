//! Plan execution against a real database.
//!
//! Executes the physical plans produced by [`crate::planner`] with full
//! physical I/O accounting, so the workload monitor sees exactly the
//! rows-read / rows-sent / CPU quantities that AIM's selection formulas
//! (Eq. 5) consume.
//!
//! Correctness strategy: access paths only *narrow* the candidate row set;
//! the executor re-applies every predicate that is fully bound at each join
//! level, so a mis-narrowed path can cost performance but never correctness.

use crate::bind::Binder;
use crate::cost::CostModel;
use crate::error::ExecError;
use crate::eval::{is_true, literal_value, CompiledAggregate, CompiledExpr, Compiler, Tuple};
use crate::hypothetical::HypoConfig;
use crate::planner::{AccessPath, EqSource, IndexScan, Plan, Planner, RangeInfo};
use crate::predicate::SargValue;
use aim_sql::ast::{AggFunc, Delete, Expr, Insert, Literal, Select, SelectItem, Statement, Update};
use aim_storage::{Database, IoStats, Key, Row, Table, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A joined tuple: one optional row per bound table instance, borrowed from
/// storage (owned only where a covering index scan rebuilt a partial row).
type JoinedTuple<'db> = Vec<Option<Cow<'db, Row>>>;

/// One produced output row with its provenance: the projected row, the
/// joined tuple it came from, and the aggregates computed for its group.
type OutputRow<'db> = (Row, JoinedTuple<'db>, Vec<Value>);

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Projected result rows (empty for DML).
    pub rows: Vec<Row>,
    /// Physical I/O performed.
    pub io: IoStats,
    /// Total measured cost in cost units (I/O + sort + output CPU).
    pub cost: f64,
    /// The plan that was executed (for SELECTs; a trivial plan for DML).
    pub plan: Plan,
    /// Rows affected (DML only).
    pub affected: u64,
}

impl ExecOutcome {
    /// Rows examined during execution.
    pub fn rows_read(&self) -> u64 {
        self.io.rows_read
    }

    /// Rows returned to the client.
    pub fn rows_sent(&self) -> u64 {
        self.rows.len() as u64
    }
}

/// The execution engine: a cost model plus statement dispatch.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    pub cost_model: CostModel,
}

impl Engine {
    /// Creates an engine with the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes any statement.
    pub fn execute(&self, db: &mut Database, stmt: &Statement) -> Result<ExecOutcome, ExecError> {
        let _span = aim_telemetry::span("exec.execute");
        // SELECTs consult the fault gate inside `execute_select` (their
        // only gate, so direct parallel-replay calls are also covered).
        if !matches!(stmt, Statement::Select(_)) {
            execute_fault_gate()?;
        }
        let outcome = match stmt {
            Statement::Select(s) => self.execute_select(db, s),
            Statement::Insert(i) => self.execute_insert(db, i),
            Statement::Update(u) => self.execute_update(db, u),
            Statement::Delete(d) => self.execute_delete(db, d),
            Statement::CreateTable(c) => {
                let mut columns = Vec::with_capacity(c.columns.len());
                for (name, ty) in &c.columns {
                    let ct = match ty {
                        aim_sql::ast::SqlType::BigInt => aim_storage::ColumnType::Int,
                        aim_sql::ast::SqlType::Double => aim_storage::ColumnType::Float,
                        aim_sql::ast::SqlType::Varchar => aim_storage::ColumnType::Str,
                        aim_sql::ast::SqlType::Boolean => aim_storage::ColumnType::Bool,
                    };
                    columns.push(aim_storage::ColumnDef::new(name.clone(), ct));
                }
                let pk: Vec<&str> = c.primary_key.iter().map(String::as_str).collect();
                let schema = aim_storage::TableSchema::new(c.name.clone(), columns, &pk)
                    .map_err(ExecError::Storage)?;
                db.create_table(schema)?;
                Ok(trivial_outcome())
            }
            Statement::CreateIndex(c) => {
                let mut io = IoStats::new();
                db.create_index(
                    aim_storage::IndexDef {
                        name: c.name.clone(),
                        table: c.table.clone(),
                        columns: c.columns.clone(),
                        unique: c.unique,
                    },
                    &mut io,
                )?;
                let cost = self.cost_model.io_cost(&io);
                Ok(ExecOutcome {
                    rows: Vec::new(),
                    io,
                    cost,
                    plan: empty_plan(),
                    affected: 0,
                })
            }
            Statement::DropIndex { name, table } => {
                db.drop_index(table, name)?;
                Ok(trivial_outcome())
            }
        }?;
        aim_telemetry::metrics::STATEMENTS_EXECUTED.incr();
        aim_telemetry::metrics::ROWS_READ.add(outcome.io.rows_read);
        aim_telemetry::metrics::PAGES_READ.add(outcome.io.pages_read);
        aim_telemetry::metrics::INDEX_SEEKS.add(outcome.io.seeks);
        // Select latency proxy for the windowed time-series and the
        // regression sentinel. Only production executes feed it — advisory
        // what-ifs and validation replays call `execute_select` directly
        // and must not pollute the live-traffic signal.
        if matches!(stmt, Statement::Select(_)) {
            aim_telemetry::metrics::histogram_record("exec.select_cost", outcome.cost);
        }
        Ok(outcome)
    }

    /// Executes a SELECT.
    pub fn execute_select(&self, db: &Database, select: &Select) -> Result<ExecOutcome, ExecError> {
        execute_fault_gate()?;
        // Spanned here (not in `execute`) so parallel validation replays,
        // which call `execute_select` directly from worker threads, still
        // time their per-query work for profile stitching.
        let _span = aim_telemetry::span("exec.select");
        let (binder, plan) = self.plan_live(db, select)?;
        let mut io = IoStats::new();
        let mut extra_cost = 0.0f64;

        // Table-free SELECT.
        if plan.steps.is_empty() {
            let mut compiler = Compiler::scalar(&binder);
            let mut row = Vec::new();
            for item in &select.items {
                match item {
                    SelectItem::Wildcard => {
                        return Err(ExecError::Unsupported("SELECT * without FROM".into()))
                    }
                    SelectItem::Expr { expr, .. } => {
                        row.push(compiler.compile(expr).eval(&[], &[])?.into_owned())
                    }
                }
            }
            return Ok(ExecOutcome {
                rows: vec![row],
                io,
                cost: self.cost_model.output_row_cost,
                plan,
                affected: 0,
            });
        }

        let conjuncts = conjuncts_by_level(select, &binder, &plan)?;
        let limit = limit_of(select)?;
        let streaming_limit = plan.order_via_index
            && select.group_by.is_empty()
            && !select.distinct
            && limit.is_some();
        let tuples = self.join(
            db,
            &binder,
            &plan,
            &conjuncts,
            limit.filter(|_| streaming_limit),
            &mut io,
        )?;
        let out = OutputSpec::compile(db, select, &binder)?;

        let mut rows: Vec<OutputRow<'_>> = Vec::new();
        if out.grouped {
            if !plan.group_via_index && !tuples.is_empty() {
                extra_cost += self.cost_model.sort_cost(tuples.len() as f64);
            }
            for members in out.group(tuples)? {
                let aggs = compute_aggregates(&out.aggregates, &members)?;
                // The implicit group of an aggregate-only query may be
                // empty (zero input rows still produce one output row, per
                // SQL); represent it with an all-unbound tuple.
                let rep = members
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| vec![None; binder.len()]);
                if let Some(h) = &out.having {
                    if !is_true(h.eval(&rep, &aggs)?.as_ref()) {
                        continue;
                    }
                }
                let row = out.project(&rep, &aggs)?;
                rows.push((row, rep, aggs));
            }
        } else {
            for tuple in tuples {
                let row = out.project(&tuple, &[])?;
                rows.push((row, tuple, Vec::new()));
            }
        }

        // DISTINCT.
        if select.distinct {
            let mut seen = std::collections::BTreeSet::new();
            rows.retain(|(row, _, _)| seen.insert(row.clone()));
        }

        // ORDER BY.
        if !select.order_by.is_empty() && !plan.order_via_index {
            extra_cost += self.cost_model.sort_cost(rows.len() as f64);
            let mut keyed: Vec<(Vec<Value>, OutputRow<'_>)> = Vec::with_capacity(rows.len());
            for r in rows {
                let (_, tuple, aggs) = &r;
                let key = out
                    .order_by
                    .iter()
                    .map(|o| o.eval(tuple, aggs).map(Cow::into_owned))
                    .collect::<Result<Vec<_>, _>>()?;
                keyed.push((key, r));
            }
            // Stable: rows with equal keys keep their production order.
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, o) in select.order_by.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if o.desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, r)| r).collect();
        }

        // LIMIT.
        if let Some(k) = limit {
            rows.truncate(k);
        }

        let rows: Vec<Row> = rows.into_iter().map(|(r, _, _)| r).collect();
        extra_cost += rows.len() as f64 * self.cost_model.output_row_cost;
        let cost = self.cost_model.io_cost(&io) + extra_cost;
        Ok(ExecOutcome {
            rows,
            io,
            cost,
            plan,
            affected: 0,
        })
    }

    /// Plans `select` against the materialized indexes and reports the
    /// chosen plan to telemetry.
    fn plan_live(&self, db: &Database, select: &Select) -> Result<(Binder, Plan), ExecError> {
        let config = HypoConfig::none();
        let planner = Planner::new(db, select, &config, &self.cost_model)?;
        let plan = planner.plan()?;
        if aim_telemetry::is_enabled() && !plan.steps.is_empty() {
            aim_telemetry::event(
                aim_telemetry::EventKind::PlanChosen,
                plan.access_summary(),
                format!("est cost {:.1}", plan.est_cost),
            );
        }
        let Planner { binder, .. } = planner;
        Ok((binder, plan))
    }

    /// Runs the plan's join and returns the tuples that pass every WHERE
    /// conjunct. With `limit` set (ORDER BY ... LIMIT served from index
    /// order) the scan stops after that many tuples.
    fn join<'db>(
        &self,
        db: &'db Database,
        binder: &Binder,
        plan: &Plan,
        conjuncts: &[Vec<CompiledExpr>],
        limit: Option<usize>,
        io: &mut IoStats,
    ) -> Result<Vec<JoinedTuple<'db>>, ExecError> {
        if let Some(k) = limit {
            if let Some(tuples) = self.stream_limited(db, binder, plan, conjuncts, k, io)? {
                return Ok(tuples);
            }
        }
        let mut tuples = Vec::new();
        let mut current: JoinedTuple<'db> = vec![None; binder.len()];
        self.join_level(
            db,
            binder,
            plan,
            conjuncts,
            0,
            &mut current,
            &mut tuples,
            limit,
            io,
        )?;
        Ok(tuples)
    }

    /// Early-terminating scan for ORDER BY ... LIMIT served from index
    /// order (§IV-E of the paper): rows are read lazily in index order,
    /// filtered, and the scan stops after `limit` matches — charging I/O
    /// only for entries actually consumed.
    ///
    /// Returns `None` when the plan shape does not qualify (multi-table,
    /// non-constant probes, OR-union), in which case the caller falls back
    /// to the eager path.
    fn stream_limited<'db>(
        &self,
        db: &'db Database,
        binder: &Binder,
        plan: &Plan,
        conjuncts: &[Vec<CompiledExpr>],
        limit: usize,
        io: &mut IoStats,
    ) -> Result<Option<Vec<JoinedTuple<'db>>>, ExecError> {
        if plan.steps.len() != 1 {
            return Ok(None);
        }
        let step = &plan.steps[0];
        let AccessPath::IndexScan(ix) = &step.path else {
            return Ok(None);
        };
        // Single constant probe prefix only.
        let mut prefix: Vec<Value> = Vec::with_capacity(ix.eq.len());
        for src in &ix.eq {
            match src {
                EqSource::Const(v) => prefix.push(v.clone()),
                _ => return Ok(None),
            }
        }
        let range = match static_range(&ix.range) {
            Ok(r) => r,
            Err(_) => return Ok(None),
        };
        let (lo, hi, lo_inc, hi_inc) = range;
        let bounds = bounds_from_parts(&lo, &hi, lo_inc, hi_inc);

        let table = db.table(&binder.tables()[step.table_idx].table)?;
        let mut out: Vec<JoinedTuple<'db>> = Vec::new();
        let mut bytes = 0u64;
        io.charge_seek();

        // Keeps `row` if it passes the filters; true once `limit` are kept.
        let mut consider = |row: Cow<'db, Row>| -> Result<bool, ExecError> {
            let tuple = vec![Some(row)];
            if passes(&conjuncts[0], &tuple)? {
                out.push(tuple);
            }
            Ok(out.len() >= limit)
        };

        match &ix.index {
            crate::planner::IndexChoice::Primary => {
                for row in table.iter_pk_range(&prefix, bounds) {
                    io.charge_rows(1);
                    bytes += row.iter().map(Value::storage_size).sum::<u64>();
                    if consider(Cow::Borrowed(row))? {
                        break;
                    }
                }
            }
            crate::planner::IndexChoice::Secondary(name) => {
                let sec = secondary_index(table, name)?;
                for e in sec.iter_prefix_range(&prefix, bounds) {
                    io.charge_rows(1);
                    bytes += e.iter().map(Value::storage_size).sum::<u64>();
                    let row = if ix.covering {
                        Cow::Owned(covering_row(table, sec, e))
                    } else {
                        let pk: Key = sec.pk_of_entry(e).to_vec();
                        match table.pk_lookup(&pk, io) {
                            Some(r) => Cow::Borrowed(r),
                            None => continue,
                        }
                    };
                    if consider(row)? {
                        break;
                    }
                }
            }
            crate::planner::IndexChoice::Hypothetical(_) => return Ok(None),
        }
        if bytes > 0 {
            io.charge_sequential(bytes);
        }
        Ok(Some(out))
    }

    /// Recursive nested-loop join over the plan steps.
    #[allow(clippy::too_many_arguments)]
    fn join_level<'db>(
        &self,
        db: &'db Database,
        binder: &Binder,
        plan: &Plan,
        conjuncts: &[Vec<CompiledExpr>],
        level: usize,
        current: &mut JoinedTuple<'db>,
        out: &mut Vec<JoinedTuple<'db>>,
        cap: Option<usize>,
        io: &mut IoStats,
    ) -> Result<(), ExecError> {
        let step = &plan.steps[level];
        let table = db.table(&binder.tables()[step.table_idx].table)?;
        // A full scan streams straight from storage; index paths collect
        // their (borrowed) rows first.
        let (mut scan, mut fetched);
        let candidates: &mut dyn Iterator<Item = Cow<'db, Row>> = match &step.path {
            AccessPath::FullScan => {
                scan = table.scan_all(io).map(Cow::Borrowed);
                &mut scan
            }
            AccessPath::IndexScan(ix) => {
                fetched = fetch_index_scan(table, ix, current, io)?.into_iter();
                &mut fetched
            }
            AccessPath::OrUnion(branches) => {
                fetched = fetch_or_union(table, branches, current, io)?.into_iter();
                &mut fetched
            }
        };
        for row in candidates {
            if cap.is_some_and(|k| out.len() >= k) {
                return Ok(());
            }
            current[step.table_idx] = Some(row);
            // Apply every conjunct that became fully bound at this level.
            if passes(&conjuncts[level], current)? {
                if level + 1 == plan.steps.len() {
                    out.push(current.clone());
                } else {
                    self.join_level(
                        db,
                        binder,
                        plan,
                        conjuncts,
                        level + 1,
                        current,
                        out,
                        cap,
                        io,
                    )?;
                }
            }
            current[step.table_idx] = None;
        }
        Ok(())
    }

    // -------------------------------------------------------------- DML

    fn execute_insert(&self, db: &mut Database, ins: &Insert) -> Result<ExecOutcome, ExecError> {
        let mut io = IoStats::new();
        let schema = db.table(&ins.table)?.schema().clone();
        let mut affected = 0u64;
        for value_row in &ins.rows {
            let mut row = vec![Value::Null; schema.columns.len()];
            if ins.columns.is_empty() {
                if value_row.len() != schema.columns.len() {
                    return Err(ExecError::Eval(format!(
                        "INSERT arity mismatch: expected {}, got {}",
                        schema.columns.len(),
                        value_row.len()
                    )));
                }
                for (i, e) in value_row.iter().enumerate() {
                    row[i] = const_eval(e)?;
                }
            } else {
                if value_row.len() != ins.columns.len() {
                    return Err(ExecError::Eval("INSERT arity mismatch".into()));
                }
                for (col, e) in ins.columns.iter().zip(value_row) {
                    let pos = schema
                        .column_index(col)
                        .ok_or_else(|| ExecError::Binding(format!("unknown column {col}")))?;
                    row[pos] = const_eval(e)?;
                }
            }
            db.table_mut(&ins.table)?.insert(row, &mut io)?;
            affected += 1;
        }
        let cost = self.cost_model.io_cost(&io);
        Ok(ExecOutcome {
            rows: Vec::new(),
            io,
            cost,
            plan: empty_plan(),
            affected,
        })
    }

    fn execute_update(&self, db: &mut Database, upd: &Update) -> Result<ExecOutcome, ExecError> {
        let (pks, mut io, plan) = self.locate_rows(db, &upd.table, upd.where_clause.as_ref())?;
        // Binder over the single target table to evaluate RHS expressions
        // like `b + 1`.
        let binder = Binder::for_tables(db, &[aim_sql::ast::TableRef::new(&upd.table)])?;
        let schema = db.table(&upd.table)?.schema();
        let mut assignments = Vec::with_capacity(upd.assignments.len());
        for (col, e) in &upd.assignments {
            let pos = schema
                .column_index(col)
                .ok_or_else(|| ExecError::Binding(format!("unknown column {col}")))?;
            assignments.push((pos, CompiledExpr::compile(e, &binder)));
        }
        let mut affected = 0u64;
        for pk in pks {
            let new_row = {
                let Some(old) = db.table(&upd.table)?.pk_lookup(&pk, &mut io) else {
                    continue;
                };
                // Every right-hand side sees the old row.
                let tuple = [Some(Cow::Borrowed(old))];
                let mut new_row = old.clone();
                for (pos, e) in &assignments {
                    new_row[*pos] = e.eval(&tuple, &[])?.into_owned();
                }
                new_row
            };
            db.table_mut(&upd.table)?.update(&pk, new_row, &mut io)?;
            affected += 1;
        }
        let cost = self.cost_model.io_cost(&io);
        Ok(ExecOutcome {
            rows: Vec::new(),
            io,
            cost,
            plan,
            affected,
        })
    }

    fn execute_delete(&self, db: &mut Database, del: &Delete) -> Result<ExecOutcome, ExecError> {
        let (pks, mut io, plan) = self.locate_rows(db, &del.table, del.where_clause.as_ref())?;
        let mut affected = 0u64;
        for pk in pks {
            if db.table_mut(&del.table)?.delete(&pk, &mut io)?.is_some() {
                affected += 1;
            }
        }
        let cost = self.cost_model.io_cost(&io);
        Ok(ExecOutcome {
            rows: Vec::new(),
            io,
            cost,
            plan,
            affected,
        })
    }

    /// Runs the WHERE clause of a DML statement as a `SELECT *` join and
    /// returns the primary keys of matching rows, taken straight from the
    /// joined tuples.
    fn locate_rows(
        &self,
        db: &Database,
        table: &str,
        where_clause: Option<&Expr>,
    ) -> Result<(Vec<Key>, IoStats, Plan), ExecError> {
        let select = Select {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: vec![aim_sql::ast::TableRef::new(table)],
            where_clause: where_clause.cloned(),
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        };
        execute_fault_gate()?;
        let _span = aim_telemetry::span("exec.select");
        let (binder, plan) = self.plan_live(db, &select)?;
        let conjuncts = conjuncts_by_level(&select, &binder, &plan)?;
        let mut io = IoStats::new();
        let tuples = self.join(db, &binder, &plan, &conjuncts, None, &mut io)?;
        let t = db.table(table)?;
        let pks = tuples
            .iter()
            .filter_map(|tuple| tuple[0].as_deref().map(|row| t.pk_of(row)))
            .collect();
        Ok((pks, io, plan))
    }
}

/// The `exec.execute` fault-injection gate (chaos testing).
fn execute_fault_gate() -> Result<(), ExecError> {
    match aim_storage::fault::hit("exec.execute") {
        Some(aim_storage::fault::FaultKind::Fail) => Err(ExecError::FaultInjected {
            site: "exec.execute".to_string(),
        }),
        _ => Ok(()),
    }
}

/// True if every conjunct accepts the tuple (NULL rejects).
fn passes(conjuncts: &[CompiledExpr], tuple: &Tuple<'_>) -> Result<bool, ExecError> {
    for c in conjuncts {
        if !is_true(c.eval(tuple, &[])?.as_ref()) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Index-merge union: the rows any branch matches, each once, in primary
/// key order.
fn fetch_or_union<'db>(
    table: &'db Table,
    branches: &[IndexScan],
    outer: &Tuple<'_>,
    io: &mut IoStats,
) -> Result<Vec<Cow<'db, Row>>, ExecError> {
    let mut pks: std::collections::BTreeSet<Key> = std::collections::BTreeSet::new();
    for b in branches {
        for row in fetch_index_scan(table, b, outer, io)? {
            pks.insert(table.pk_of(&row));
        }
    }
    let mut rows = Vec::with_capacity(pks.len());
    for pk in pks {
        if let Some(r) = table.pk_lookup(&pk, io) {
            rows.push(Cow::Borrowed(r));
        }
    }
    Ok(rows)
}

fn fetch_index_scan<'db>(
    table: &'db Table,
    ix: &IndexScan,
    outer: &Tuple<'_>,
    io: &mut IoStats,
) -> Result<Vec<Cow<'db, Row>>, ExecError> {
    // Expand equality sources into concrete probe prefixes.
    let mut prefixes: Vec<Vec<Value>> = vec![Vec::with_capacity(ix.eq.len())];
    for src in &ix.eq {
        match src {
            EqSource::Const(v) => {
                for p in &mut prefixes {
                    p.push(v.clone());
                }
            }
            EqSource::InList(vs) => {
                let mut next = Vec::with_capacity(prefixes.len() * vs.len());
                for p in prefixes {
                    for v in vs {
                        let mut q = p.clone();
                        q.push(v.clone());
                        next.push(q);
                    }
                }
                prefixes = next;
            }
            EqSource::Outer(bc) => {
                let row = outer
                    .get(bc.table_idx)
                    .and_then(|r| r.as_deref())
                    .ok_or_else(|| ExecError::Eval("outer row not bound for index join".into()))?;
                let v = &row[bc.col_idx];
                for p in &mut prefixes {
                    p.push(v.clone());
                }
            }
            EqSource::Unknown => {
                return Err(ExecError::Eval(
                    "cannot execute plan with unknown parameters".into(),
                ))
            }
        }
    }

    let (lo, hi, lo_inc, hi_inc) = static_range(&ix.range)?;

    let mut rows = Vec::new();
    match &ix.index {
        crate::planner::IndexChoice::Primary => {
            for prefix in &prefixes {
                // Full-PK point lookup fast path.
                if prefix.len() == table.schema().primary_key.len() && lo.is_none() && hi.is_none()
                {
                    if let Some(r) = table.pk_lookup(prefix, io) {
                        rows.push(Cow::Borrowed(r));
                    }
                } else {
                    let bounds = bounds_from_parts(&lo, &hi, lo_inc, hi_inc);
                    rows.extend(
                        table
                            .pk_range(prefix, bounds, io)
                            .into_iter()
                            .map(Cow::Borrowed),
                    );
                }
            }
        }
        crate::planner::IndexChoice::Secondary(name) => {
            let sec = secondary_index(table, name)?;
            for prefix in &prefixes {
                let entries =
                    sec.scan_prefix_range(prefix, bounds_from_parts(&lo, &hi, lo_inc, hi_inc), io);
                if ix.covering {
                    // Rebuild partial rows from the entries: every
                    // referenced column is present by the covering check.
                    rows.extend(
                        entries
                            .into_iter()
                            .map(|e| Cow::Owned(covering_row(table, sec, e))),
                    );
                } else {
                    for e in entries {
                        let pk: Key = sec.pk_of_entry(e).to_vec();
                        if let Some(r) = table.pk_lookup(&pk, io) {
                            rows.push(Cow::Borrowed(r));
                        }
                    }
                }
            }
        }
        crate::planner::IndexChoice::Hypothetical(_) => {
            return Err(ExecError::Eval(
                "hypothetical index in an executable plan".into(),
            ))
        }
    }
    Ok(rows)
}

/// Looks up a materialized secondary index by name.
fn secondary_index<'t>(
    table: &'t Table,
    name: &str,
) -> Result<&'t aim_storage::SecondaryIndex, ExecError> {
    table.index(name).ok_or_else(|| {
        ExecError::Storage(aim_storage::StorageError::UnknownIndex {
            table: table.schema().name.clone(),
            index: name.to_string(),
        })
    })
}

/// Rebuilds the partial row a covering index entry holds: key and primary
/// key columns in place, every other column NULL.
fn covering_row(table: &Table, sec: &aim_storage::SecondaryIndex, entry: &Key) -> Row {
    let mut row = vec![Value::Null; table.schema().columns.len()];
    for (i, &p) in sec.key_positions().iter().enumerate() {
        row[p] = entry[i].clone();
    }
    let off = sec.key_positions().len();
    for (i, &p) in sec.pk_positions().iter().enumerate() {
        row[p] = entry[off + i].clone();
    }
    row
}

/// Evaluates a constant expression (no column references).
fn const_eval(e: &Expr) -> Result<Value, ExecError> {
    match e {
        Expr::Literal(l) => literal_value(l),
        Expr::Neg(inner) => match const_eval(inner)? {
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(ExecError::Eval(format!("cannot negate {other}"))),
        },
        other => Err(ExecError::Eval(format!(
            "expected constant expression, got {other}"
        ))),
    }
}

fn limit_of(select: &Select) -> Result<Option<usize>, ExecError> {
    match &select.limit {
        None => Ok(None),
        Some(Expr::Literal(Literal::Int(v))) if *v >= 0 => Ok(Some(*v as usize)),
        Some(other) => Err(ExecError::Unsupported(format!(
            "non-constant LIMIT {other}"
        ))),
    }
}

/// Compiles each WHERE conjunct and assigns it to the first join level at
/// which all of its referenced tables are bound.
fn conjuncts_by_level(
    select: &Select,
    binder: &Binder,
    plan: &Plan,
) -> Result<Vec<Vec<CompiledExpr>>, ExecError> {
    let mut by_level: Vec<Vec<CompiledExpr>> = vec![Vec::new(); plan.steps.len()];
    let Some(w) = &select.where_clause else {
        return Ok(by_level);
    };
    let conjuncts: &[Expr] = match w {
        Expr::And(children) => children,
        other => std::slice::from_ref(other),
    };
    // bound_at[t] = join level at which table instance t becomes bound.
    let mut bound_at = vec![usize::MAX; binder.len()];
    for (level, step) in plan.steps.iter().enumerate() {
        bound_at[step.table_idx] = level;
    }
    for c in conjuncts {
        let mut cols = Vec::new();
        c.referenced_columns(&mut cols);
        let mut level = 0usize;
        for col in &cols {
            let bc = binder.resolve(col)?;
            level = level.max(bound_at[bc.table_idx]);
        }
        if level == usize::MAX {
            return Err(ExecError::Binding(
                "predicate references unplanned table".into(),
            ));
        }
        by_level[level].push(CompiledExpr::compile(c, binder));
    }
    Ok(by_level)
}

/// The output side of a SELECT — grouping keys, aggregates, projection,
/// HAVING and ORDER BY — compiled once per statement. In a grouped query
/// every aggregate call is a slot into the group's aggregate results.
struct OutputSpec {
    grouped: bool,
    group_by: Vec<CompiledExpr>,
    aggregates: Vec<CompiledAggregate>,
    /// Projection items; `None` is `*`.
    items: Vec<Option<CompiledExpr>>,
    /// Column count per bound table, for `*` over an unbound instance.
    widths: Vec<usize>,
    having: Option<CompiledExpr>,
    order_by: Vec<CompiledExpr>,
}

impl OutputSpec {
    fn compile(db: &Database, select: &Select, binder: &Binder) -> Result<Self, ExecError> {
        let has_aggregates = select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || select.having.is_some();
        let grouped = !select.group_by.is_empty() || has_aggregates;
        let mut scalar = Compiler::scalar(binder);
        let group_by = select.group_by.iter().map(|g| scalar.compile(g)).collect();
        let mut compiler = if grouped {
            Compiler::grouped(binder)
        } else {
            Compiler::scalar(binder)
        };
        let items = select
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => None,
                SelectItem::Expr { expr, .. } => Some(compiler.compile(expr)),
            })
            .collect();
        let having = select.having.as_ref().map(|h| compiler.compile(h));
        let order_by = select
            .order_by
            .iter()
            .map(|o| compiler.compile(&o.expr))
            .collect();
        let widths = (0..binder.len())
            .map(|t| Ok(binder.schema(db, t)?.columns.len()))
            .collect::<Result<_, ExecError>>()?;
        Ok(Self {
            grouped,
            group_by,
            aggregates: compiler.aggregates(),
            items,
            widths,
            having,
            order_by,
        })
    }

    /// Splits joined tuples into groups, in GROUP BY key order (one group,
    /// possibly empty, when there is no GROUP BY).
    fn group<'db>(
        &self,
        tuples: Vec<JoinedTuple<'db>>,
    ) -> Result<Vec<Vec<JoinedTuple<'db>>>, ExecError> {
        if self.group_by.is_empty() {
            // Single implicit group (aggregate query without GROUP BY):
            // produced even over zero input rows, per SQL semantics.
            return Ok(vec![tuples]);
        }
        let mut groups: BTreeMap<Vec<Value>, Vec<JoinedTuple<'db>>> = BTreeMap::new();
        for tuple in tuples {
            let key = self
                .group_by
                .iter()
                .map(|g| g.eval(&tuple, &[]).map(Cow::into_owned))
                .collect::<Result<Vec<_>, _>>()?;
            groups.entry(key).or_default().push(tuple);
        }
        Ok(groups.into_values().collect())
    }

    /// Projects one output row.
    fn project(&self, tuple: &Tuple<'_>, aggs: &[Value]) -> Result<Row, ExecError> {
        let mut out = Vec::new();
        for item in &self.items {
            match item {
                None => {
                    for (row, &width) in tuple.iter().zip(&self.widths) {
                        match row {
                            Some(row) => out.extend(row.iter().cloned()),
                            None => out.extend(std::iter::repeat_n(Value::Null, width)),
                        }
                    }
                }
                Some(e) => out.push(e.eval(tuple, aggs)?.into_owned()),
            }
        }
        Ok(out)
    }
}

/// Computes one group's aggregate results, one per slot.
fn compute_aggregates(
    aggregates: &[CompiledAggregate],
    members: &[JoinedTuple<'_>],
) -> Result<Vec<Value>, ExecError> {
    let mut out = Vec::with_capacity(aggregates.len());
    for agg in aggregates {
        let mut values: Vec<Cow<'_, Value>> = Vec::new();
        for tuple in members {
            match &agg.arg {
                None => values.push(Cow::Owned(Value::Int(1))), // COUNT(*)
                Some(a) => {
                    let v = a.eval(tuple, &[])?;
                    if !v.is_null() {
                        values.push(v);
                    }
                }
            }
        }
        if agg.distinct {
            let mut seen = std::collections::BTreeSet::new();
            values.retain(|v| seen.insert(v.clone()));
        }
        let result = match agg.func {
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::Sum => fold_numeric(&values, |a, b| a + b),
            AggFunc::Avg => match fold_numeric(&values, |a, b| a + b) {
                Value::Null => Value::Null,
                v => Value::Float(v.as_f64().unwrap_or(0.0) / values.len() as f64),
            },
            AggFunc::Min => values
                .iter()
                .min()
                .map_or(Value::Null, |v| v.as_ref().clone()),
            AggFunc::Max => values
                .iter()
                .max()
                .map_or(Value::Null, |v| v.as_ref().clone()),
        };
        out.push(result);
    }
    Ok(out)
}

fn fold_numeric(values: &[Cow<'_, Value>], f: impl Fn(f64, f64) -> f64) -> Value {
    if values.is_empty() {
        return Value::Null;
    }
    let all_int = values.iter().all(|v| matches!(v.as_ref(), Value::Int(_)));
    let mut acc = 0.0f64;
    for v in values {
        acc = f(acc, v.as_f64().unwrap_or(0.0));
    }
    if all_int {
        Value::Int(acc as i64)
    } else {
        Value::Float(acc)
    }
}

/// `(lo, hi, lo_inclusive, hi_inclusive)` with `None` meaning unbounded.
type RangeParts = (Option<Value>, Option<Value>, bool, bool);

/// Resolves a plan's range constraint to concrete values, rejecting
/// unknown-parameter bounds (estimate-only plans cannot execute).
fn static_range(r: &Option<RangeInfo>) -> Result<RangeParts, ExecError> {
    let Some(r) = r else {
        return Ok((None, None, true, true));
    };
    let conv = |b: &Bound<SargValue>| -> Result<(Option<Value>, bool), ExecError> {
        match b {
            Bound::Unbounded => Ok((None, true)),
            Bound::Included(SargValue::Const(v)) => Ok((Some(v.clone()), true)),
            Bound::Excluded(SargValue::Const(v)) => Ok((Some(v.clone()), false)),
            _ => Err(ExecError::Eval(
                "cannot execute range with unknown parameter".into(),
            )),
        }
    };
    let (lo, lo_inc) = conv(&r.lo)?;
    let (hi, hi_inc) = conv(&r.hi)?;
    Ok((lo, hi, lo_inc, hi_inc))
}

/// Converts resolved range parts into `Bound` references for scan calls.
fn bounds_from_parts<'v>(
    lo: &'v Option<Value>,
    hi: &'v Option<Value>,
    lo_inc: bool,
    hi_inc: bool,
) -> (Bound<&'v Value>, Bound<&'v Value>) {
    let l = match lo {
        None => Bound::Unbounded,
        Some(v) => {
            if lo_inc {
                Bound::Included(v)
            } else {
                Bound::Excluded(v)
            }
        }
    };
    let h = match hi {
        None => Bound::Unbounded,
        Some(v) => {
            if hi_inc {
                Bound::Included(v)
            } else {
                Bound::Excluded(v)
            }
        }
    };
    (l, h)
}

fn empty_plan() -> Plan {
    Plan {
        steps: Vec::new(),
        join_rows: 0.0,
        result_rows: 0.0,
        est_cost: 0.0,
        order_via_index: false,
        group_via_index: false,
    }
}

fn trivial_outcome() -> ExecOutcome {
    ExecOutcome {
        rows: Vec::new(),
        io: IoStats::new(),
        cost: 0.0,
        plan: empty_plan(),
        affected: 0,
    }
}
