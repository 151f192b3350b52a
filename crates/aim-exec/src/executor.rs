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
use crate::eval::{eval, is_true, literal_value, Env};
use crate::hypothetical::HypoConfig;
use crate::planner::{
    AccessPath, EqSource, IndexScan, Plan, Planner, RangeInfo,
};
use crate::predicate::SargValue;
use aim_sql::ast::{
    AggFunc, Delete, Expr, Insert, Literal, Select, SelectItem, Statement, Update,
};
use aim_storage::{Database, IoStats, Key, Row, Table, Value};
use std::collections::BTreeMap;
use std::ops::Bound;

/// One produced output row with its provenance: the projected row, the
/// joined tuple it came from, and the aggregates computed for its group.
type OutputRow = (Row, Vec<Option<Row>>, BTreeMap<String, Value>);

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
    pub fn execute(
        &self,
        db: &mut Database,
        stmt: &Statement,
    ) -> Result<ExecOutcome, ExecError> {
        let _span = aim_telemetry::span("exec.execute");
        // SELECTs consult the fault gate inside `execute_select` (their
        // only gate, so direct parallel-replay calls are also covered).
        if !matches!(stmt, Statement::Select(_)) {
            if let Some(aim_storage::fault::FaultKind::Fail) =
                aim_storage::fault::hit("exec.execute")
            {
                return Err(ExecError::FaultInjected {
                    site: "exec.execute".to_string(),
                });
            }
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
    pub fn execute_select(
        &self,
        db: &Database,
        select: &Select,
    ) -> Result<ExecOutcome, ExecError> {
        if let Some(aim_storage::fault::FaultKind::Fail) =
            aim_storage::fault::hit("exec.execute")
        {
            return Err(ExecError::FaultInjected {
                site: "exec.execute".to_string(),
            });
        }
        // Spanned here (not in `execute`) so parallel validation replays,
        // which call `execute_select` directly from worker threads, still
        // time their per-query work for profile stitching.
        let _span = aim_telemetry::span("exec.select");
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
        let mut io = IoStats::new();
        let mut extra_cost = 0.0f64;

        // Table-free SELECT.
        if plan.steps.is_empty() {
            let env_rows: Vec<Option<&Row>> = Vec::new();
            let env = Env::new(&env_rows);
            let mut row = Vec::new();
            for item in &select.items {
                match item {
                    SelectItem::Wildcard => {
                        return Err(ExecError::Unsupported("SELECT * without FROM".into()))
                    }
                    SelectItem::Expr { expr, .. } => {
                        row.push(eval(expr, &planner.binder, &env)?)
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

        // Precompute, per join level, which WHERE conjuncts become fully
        // bound at that level.
        let conjuncts = conjuncts_by_level(select, &planner.binder, &plan)?;

        let limit = limit_of(select)?;
        let streaming_limit = plan.order_via_index
            && select.group_by.is_empty()
            && !select.distinct
            && limit.is_some();

        let mut tuples: Vec<Vec<Option<Row>>> = Vec::new();
        let mut streamed = false;
        if streaming_limit {
            if let Some(k) = limit {
                if let Some(streamed_tuples) =
                    self.stream_limited(db, &planner, &plan, &conjuncts, k, &mut io)?
                {
                    tuples = streamed_tuples;
                    streamed = true;
                }
            }
        }
        if !streamed {
            let mut current: Vec<Option<Row>> = vec![None; planner.binder.len()];
            let cap = if streaming_limit { limit } else { None };
            self.join_level(
                db,
                &planner,
                &plan,
                &conjuncts,
                0,
                &mut current,
                &mut tuples,
                cap,
                &mut io,
            )?;
        }

        // Grouping / aggregation.
        let has_aggregates = select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || select.having.is_some();
        let grouped = !select.group_by.is_empty() || has_aggregates;

        let mut out: Vec<OutputRow> = Vec::new();
        if grouped {
            let groups = self.group_rows(select, &planner.binder, &tuples)?;
            if !plan.group_via_index && !tuples.is_empty() {
                extra_cost += self.cost_model.sort_cost(tuples.len() as f64);
            }
            for (_, members) in groups {
                let aggs = compute_aggregates(select, &planner.binder, &members)?;
                // The implicit group of an aggregate-only query may be
                // empty (zero input rows still produce one output row, per
                // SQL); represent it with an all-unbound tuple.
                let rep: Vec<Option<Row>> = members
                    .first()
                    .cloned()
                    .unwrap_or_else(|| vec![None; planner.binder.len()]);
                // HAVING filter.
                if let Some(h) = &select.having {
                    let subst = substitute_aggregates(h, &aggs);
                    let refs: Vec<Option<&Row>> = rep.iter().map(|r| r.as_ref()).collect();
                    let v = eval(&subst, &planner.binder, &Env::new(&refs))?;
                    if !is_true(&v) {
                        continue;
                    }
                }
                let row = project_row(select, &planner.binder, &rep, &aggs, db)?;
                out.push((row, rep, aggs));
            }
        } else {
            for tuple in tuples {
                let row = project_row(select, &planner.binder, &tuple, &BTreeMap::new(), db)?;
                out.push((row, tuple, BTreeMap::new()));
            }
        }

        // DISTINCT.
        if select.distinct {
            let mut seen = std::collections::BTreeSet::new();
            out.retain(|(row, _, _)| seen.insert(row.clone()));
        }

        // ORDER BY.
        if !select.order_by.is_empty() && !plan.order_via_index {
            extra_cost += self.cost_model.sort_cost(out.len() as f64);
            let binder = &planner.binder;
            let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(out.len());
            for (i, (_, tuple, aggs)) in out.iter().enumerate() {
                let rep: Vec<Option<&Row>> = tuple.iter().map(|r| r.as_ref()).collect();
                let env = Env::new(&rep);
                let mut key = Vec::with_capacity(select.order_by.len());
                for o in &select.order_by {
                    let e = substitute_aggregates(&o.expr, aggs);
                    key.push(eval(&e, binder, &env)?);
                }
                keyed.push((key, i));
            }
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
            let mut reordered = Vec::with_capacity(out.len());
            for (_, i) in keyed {
                reordered.push(out[i].clone());
            }
            out = reordered;
        }

        // LIMIT.
        if let Some(k) = limit {
            out.truncate(k);
        }

        let rows: Vec<Row> = out.into_iter().map(|(r, _, _)| r).collect();
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

    /// Early-terminating scan for ORDER BY ... LIMIT served from index
    /// order (§IV-E of the paper): rows are read lazily in index order,
    /// filtered, and the scan stops after `limit` matches — charging I/O
    /// only for entries actually consumed.
    ///
    /// Returns `None` when the plan shape does not qualify (multi-table,
    /// non-constant probes, OR-union), in which case the caller falls back
    /// to the eager path.
    fn stream_limited(
        &self,
        db: &Database,
        planner: &Planner<'_>,
        plan: &Plan,
        conjuncts: &[Vec<Expr>],
        limit: usize,
        io: &mut IoStats,
    ) -> Result<Option<Vec<Vec<Option<Row>>>>, ExecError> {
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

        let table = db.table(&planner.binder.tables()[step.table_idx].table)?;
        let mut out: Vec<Vec<Option<Row>>> = Vec::new();
        let mut bytes = 0u64;
        io.charge_seek();

        let mut consider = |row: Row, io: &mut IoStats| -> Result<bool, ExecError> {
            let tuple = vec![Some(row)];
            let refs: Vec<Option<&Row>> = tuple.iter().map(|r| r.as_ref()).collect();
            let env = Env::new(&refs);
            for c in &conjuncts[0] {
                if !is_true(&eval(c, &planner.binder, &env)?) {
                    return Ok(false);
                }
            }
            let _ = io;
            out.push(tuple);
            Ok(out.len() >= limit)
        };

        match &ix.index {
            crate::planner::IndexChoice::Primary => {
                for row in table.iter_pk_range(&prefix, bounds) {
                    io.charge_rows(1);
                    bytes += row.iter().map(Value::storage_size).sum::<u64>();
                    if consider(row.clone(), io)? {
                        break;
                    }
                }
            }
            crate::planner::IndexChoice::Secondary(name) => {
                let sec = table.index(name).ok_or_else(|| {
                    ExecError::Storage(aim_storage::StorageError::UnknownIndex {
                        table: table.schema().name.clone(),
                        index: name.clone(),
                    })
                })?;
                let ncols = table.schema().columns.len();
                for e in sec.iter_prefix_range(&prefix, bounds) {
                    io.charge_rows(1);
                    bytes += e.iter().map(Value::storage_size).sum::<u64>();
                    let row = if ix.covering {
                        let mut row = vec![Value::Null; ncols];
                        for (i, &p) in sec.key_positions().iter().enumerate() {
                            row[p] = e[i].clone();
                        }
                        let off = sec.key_positions().len();
                        for (i, &p) in sec.pk_positions().iter().enumerate() {
                            row[p] = e[off + i].clone();
                        }
                        row
                    } else {
                        let pk: Key = sec.pk_of_entry(e).to_vec();
                        match table.pk_lookup(&pk, io) {
                            Some(r) => r.clone(),
                            None => continue,
                        }
                    };
                    if consider(row, io)? {
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
    fn join_level(
        &self,
        db: &Database,
        planner: &Planner<'_>,
        plan: &Plan,
        conjuncts: &[Vec<Expr>],
        level: usize,
        current: &mut Vec<Option<Row>>,
        out: &mut Vec<Vec<Option<Row>>>,
        cap: Option<usize>,
        io: &mut IoStats,
    ) -> Result<(), ExecError> {
        let step = &plan.steps[level];
        let table = db.table(&planner.binder.tables()[step.table_idx].table)?;
        let candidates = self.fetch_rows(db, table, &step.path, current, io)?;
        for row in candidates {
            if cap.is_some_and(|k| out.len() >= k) {
                return Ok(());
            }
            current[step.table_idx] = Some(row);
            // Apply every conjunct that became fully bound at this level.
            let refs: Vec<Option<&Row>> = current.iter().map(|r| r.as_ref()).collect();
            let env = Env::new(&refs);
            let mut pass = true;
            for c in &conjuncts[level] {
                if !is_true(&eval(c, &planner.binder, &env)?) {
                    pass = false;
                    break;
                }
            }
            if !pass {
                current[step.table_idx] = None;
                continue;
            }
            if level + 1 == plan.steps.len() {
                out.push(current.clone());
            } else {
                self.join_level(
                    db, planner, plan, conjuncts, level + 1, current, out, cap, io,
                )?;
            }
            current[step.table_idx] = None;
        }
        Ok(())
    }

    /// Fetches candidate rows for one access path, given the outer context.
    fn fetch_rows(
        &self,
        db: &Database,
        table: &Table,
        path: &AccessPath,
        outer: &[Option<Row>],
        io: &mut IoStats,
    ) -> Result<Vec<Row>, ExecError> {
        match path {
            AccessPath::FullScan => Ok(table.scan_all(io).cloned().collect()),
            AccessPath::IndexScan(ix) => self.fetch_index_scan(db, table, ix, outer, io),
            AccessPath::OrUnion(branches) => {
                let mut pks: std::collections::BTreeSet<Key> = std::collections::BTreeSet::new();
                for b in branches {
                    for row in self.fetch_index_scan(db, table, b, outer, io)? {
                        pks.insert(table.pk_of(&row));
                    }
                }
                let mut rows = Vec::with_capacity(pks.len());
                for pk in pks {
                    if let Some(r) = table.pk_lookup(&pk, io) {
                        rows.push(r.clone());
                    }
                }
                Ok(rows)
            }
        }
    }

    fn fetch_index_scan(
        &self,
        db: &Database,
        table: &Table,
        ix: &IndexScan,
        outer: &[Option<Row>],
        io: &mut IoStats,
    ) -> Result<Vec<Row>, ExecError> {
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
                        .and_then(|r| r.as_ref())
                        .ok_or_else(|| {
                            ExecError::Eval("outer row not bound for index join".into())
                        })?;
                    let v = row[bc.col_idx].clone();
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
                            rows.push(r.clone());
                        }
                    } else {
                        for r in table.pk_range(prefix, bounds_from_parts(&lo, &hi, lo_inc, hi_inc), io) {
                            rows.push(r.clone());
                        }
                    }
                }
            }
            crate::planner::IndexChoice::Secondary(name) => {
                let sec = table.index(name).ok_or_else(|| {
                    ExecError::Storage(aim_storage::StorageError::UnknownIndex {
                        table: table.schema().name.clone(),
                        index: name.clone(),
                    })
                })?;
                let ncols = table.schema().columns.len();
                for prefix in &prefixes {
                    let entries = sec.scan_prefix_range(prefix, bounds_from_parts(&lo, &hi, lo_inc, hi_inc), io);
                    if ix.covering {
                        // Reconstruct partial rows from the entries: every
                        // referenced column is present by the covering check.
                        for e in entries {
                            let mut row = vec![Value::Null; ncols];
                            for (i, &p) in sec.key_positions().iter().enumerate() {
                                row[p] = e[i].clone();
                            }
                            let off = sec.key_positions().len();
                            for (i, &p) in sec.pk_positions().iter().enumerate() {
                                row[p] = e[off + i].clone();
                            }
                            rows.push(row);
                        }
                    } else {
                        for e in entries {
                            let pk: Key = sec.pk_of_entry(e).to_vec();
                            if let Some(r) = table.pk_lookup(&pk, io) {
                                rows.push(r.clone());
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
        let _ = db;
        Ok(rows)
    }

    /// Groups joined tuples by the GROUP BY key (single group when absent).
    #[allow(clippy::type_complexity)]
    fn group_rows(
        &self,
        select: &Select,
        binder: &Binder,
        tuples: &[Vec<Option<Row>>],
    ) -> Result<Vec<(Vec<Value>, Vec<Vec<Option<Row>>>)>, ExecError> {
        let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Option<Row>>>> = BTreeMap::new();
        if select.group_by.is_empty() {
            // Single implicit group (aggregate query without GROUP BY):
            // produced even over zero input rows, per SQL semantics.
            return Ok(vec![(Vec::new(), tuples.to_vec())]);
        }
        for tuple in tuples {
            let refs: Vec<Option<&Row>> = tuple.iter().map(|r| r.as_ref()).collect();
            let env = Env::new(&refs);
            let mut key = Vec::with_capacity(select.group_by.len());
            for g in &select.group_by {
                key.push(eval(g, binder, &env)?);
            }
            groups.entry(key).or_default().push(tuple.clone());
        }
        Ok(groups.into_iter().collect())
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
                    let pos = schema.column_index(col).ok_or_else(|| {
                        ExecError::Binding(format!("unknown column {col}"))
                    })?;
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
        let (pks, mut io, plan) =
            self.locate_rows(db, &upd.table, upd.where_clause.as_ref())?;
        let schema = db.table(&upd.table)?.schema().clone();
        let mut assignments = Vec::with_capacity(upd.assignments.len());
        for (col, e) in &upd.assignments {
            let pos = schema
                .column_index(col)
                .ok_or_else(|| ExecError::Binding(format!("unknown column {col}")))?;
            assignments.push((pos, e.clone()));
        }
        // Binder over the single target table to evaluate RHS expressions
        // like `b + 1`.
        let binder = Binder::for_tables(db, &[aim_sql::ast::TableRef::new(&upd.table)])?;
        let mut affected = 0u64;
        for pk in pks {
            let Some(old) = db.table(&upd.table)?.pk_lookup(&pk, &mut io).cloned() else {
                continue;
            };
            let mut new_row = old.clone();
            {
                let refs = [Some(&old)];
                let env = Env::new(&refs);
                for (pos, e) in &assignments {
                    new_row[*pos] = eval(e, &binder, &env)?;
                }
            }
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
        let (pks, mut io, plan) =
            self.locate_rows(db, &del.table, del.where_clause.as_ref())?;
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

    /// Runs the WHERE clause of a DML statement as a SELECT and returns the
    /// primary keys of matching rows.
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
        let outcome = self.execute_select(db, &select)?;
        let t = db.table(table)?;
        let pks = outcome.rows.iter().map(|r| t.pk_of(r)).collect();
        Ok((pks, outcome.io, outcome.plan))
    }
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

/// Assigns each WHERE conjunct to the first join level at which all of its
/// referenced tables are bound.
fn conjuncts_by_level(
    select: &Select,
    binder: &Binder,
    plan: &Plan,
) -> Result<Vec<Vec<Expr>>, ExecError> {
    let mut by_level: Vec<Vec<Expr>> = vec![Vec::new(); plan.steps.len()];
    let Some(w) = &select.where_clause else {
        return Ok(by_level);
    };
    let conjuncts: Vec<Expr> = match w {
        Expr::And(children) => children.clone(),
        other => vec![other.clone()],
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
        by_level[level].push(c);
    }
    Ok(by_level)
}

/// Computes all aggregate expressions appearing in the SELECT items, HAVING
/// and ORDER BY for one group, keyed by their display text.
fn compute_aggregates(
    select: &Select,
    binder: &Binder,
    members: &[Vec<Option<Row>>],
) -> Result<BTreeMap<String, Value>, ExecError> {
    let mut agg_exprs: Vec<Expr> = Vec::new();
    let mut collect = |e: &Expr| collect_aggregates(e, &mut agg_exprs);
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr);
        }
    }
    if let Some(h) = &select.having {
        collect(h);
    }
    for o in &select.order_by {
        collect(&o.expr);
    }

    let mut out = BTreeMap::new();
    for agg in agg_exprs {
        let Expr::Aggregate {
            func,
            arg,
            distinct,
        } = &agg
        else {
            continue;
        };
        let mut values: Vec<Value> = Vec::new();
        for tuple in members {
            let refs: Vec<Option<&Row>> = tuple.iter().map(|r| r.as_ref()).collect();
            let env = Env::new(&refs);
            match arg {
                None => values.push(Value::Int(1)), // COUNT(*)
                Some(a) => {
                    let v = eval(a, binder, &env)?;
                    if !v.is_null() {
                        values.push(v);
                    }
                }
            }
        }
        if *distinct {
            let mut seen = std::collections::BTreeSet::new();
            values.retain(|v| seen.insert(v.clone()));
        }
        let result = match func {
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::Sum => fold_numeric(&values, |a, b| a + b),
            AggFunc::Avg => match fold_numeric(&values, |a, b| a + b) {
                Value::Null => Value::Null,
                v => Value::Float(v.as_f64().unwrap_or(0.0) / values.len() as f64),
            },
            AggFunc::Min => values.iter().min().cloned().unwrap_or(Value::Null),
            AggFunc::Max => values.iter().max().cloned().unwrap_or(Value::Null),
        };
        out.insert(agg.to_string(), result);
    }
    Ok(out)
}

fn fold_numeric(values: &[Value], f: impl Fn(f64, f64) -> f64) -> Value {
    if values.is_empty() {
        return Value::Null;
    }
    let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
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

fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Aggregate { .. } => {
            if !out.contains(e) {
                out.push(e.clone());
            }
        }
        Expr::And(cs) | Expr::Or(cs) => cs.iter().for_each(|c| collect_aggregates(c, out)),
        Expr::Not(i) | Expr::Neg(i) => collect_aggregates(i, out),
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            list.iter().for_each(|c| collect_aggregates(c, out));
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        Expr::Column(_) | Expr::Literal(_) => {}
    }
}

/// Replaces aggregate sub-expressions with their computed values.
fn substitute_aggregates(e: &Expr, computed: &BTreeMap<String, Value>) -> Expr {
    if let Expr::Aggregate { .. } = e {
        if let Some(v) = computed.get(&e.to_string()) {
            return Expr::Literal(value_to_literal(v));
        }
    }
    match e {
        Expr::And(cs) => Expr::And(cs.iter().map(|c| substitute_aggregates(c, computed)).collect()),
        Expr::Or(cs) => Expr::Or(cs.iter().map(|c| substitute_aggregates(c, computed)).collect()),
        Expr::Not(i) => Expr::Not(Box::new(substitute_aggregates(i, computed))),
        Expr::Neg(i) => Expr::Neg(Box::new(substitute_aggregates(i, computed))),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(substitute_aggregates(left, computed)),
            op: *op,
            right: Box::new(substitute_aggregates(right, computed)),
        },
        other => other.clone(),
    }
}

fn value_to_literal(v: &Value) -> Literal {
    match v {
        Value::Null | Value::MaxKey => Literal::Null,
        Value::Bool(b) => Literal::Bool(*b),
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Str(s) => Literal::Str(s.clone()),
    }
}

/// Projects one output row.
fn project_row(
    select: &Select,
    binder: &Binder,
    tuple: &[Option<Row>],
    aggs: &BTreeMap<String, Value>,
    db: &Database,
) -> Result<Row, ExecError> {
    let refs: Vec<Option<&Row>> = tuple.iter().map(|r| r.as_ref()).collect();
    let env = Env::new(&refs);
    let mut out = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for (t, bound) in binder.tables().iter().enumerate() {
                    let ncols = db.table(&bound.table)?.schema().columns.len();
                    match &tuple[t] {
                        Some(row) => out.extend(row.iter().cloned()),
                        None => out.extend(std::iter::repeat_n(Value::Null, ncols)),
                    }
                }
            }
            SelectItem::Expr { expr, .. } => {
                let e = substitute_aggregates(expr, aggs);
                out.push(eval(&e, binder, &env)?);
            }
        }
    }
    Ok(out)
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
