//! Scalar expression evaluation over compiled expressions.
//!
//! The executor compiles every expression of a statement once
//! (`CompiledExpr::compile`): column references become
//! `(table_idx, col_idx)` slots, literals (LIKE patterns included) become
//! [`Value`]s and, in a grouped query, aggregate calls become slots into
//! the group's aggregate results. Evaluation then
//! runs against a *tuple* of borrowed rows — one optional row per bound
//! table instance (inner tables of a join may not be bound yet) — and
//! returns a [`Cow`] that borrows column values and constants instead of
//! cloning them.
//!
//! Errors stay deferred to evaluation time: an unbound `?`, an
//! unresolvable column or an aggregate in scalar context compiles to a node
//! that fails only when it is evaluated, so a predicate that is never
//! reached (no rows, or a short-circuited AND/OR branch) never fails.
//!
//! SQL three-valued logic is modelled with [`Value::Null`]: comparisons
//! against NULL yield NULL, and filters treat NULL as false.

use crate::bind::{Binder, BoundColumn};
use crate::error::ExecError;
use aim_sql::ast::{AggFunc, BinOp, Expr, Literal};
use aim_storage::{Row, Value};
use std::borrow::Cow;

/// The current row of each bound table instance, aligned with the binder's
/// table list. Rows are borrowed from storage, or owned where a covering
/// index scan rebuilt a partial row from index entries.
pub(crate) type Tuple<'db> = [Option<Cow<'db, Row>>];

/// A scalar expression with every name resolved and every literal
/// converted, ready to evaluate per row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CompiledExpr {
    Const(Value),
    Column(BoundColumn),
    /// Slot into the aggregate results of the current group.
    Aggregate(usize),
    Neg(Box<CompiledExpr>),
    Not(Box<CompiledExpr>),
    And(Vec<CompiledExpr>),
    Or(Vec<CompiledExpr>),
    Binary {
        left: Box<CompiledExpr>,
        op: BinOp,
        right: Box<CompiledExpr>,
    },
    InList {
        expr: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
    },
    Between {
        expr: Box<CompiledExpr>,
        low: Box<CompiledExpr>,
        high: Box<CompiledExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<CompiledExpr>,
        negated: bool,
    },
    Like {
        expr: Box<CompiledExpr>,
        pattern: Box<CompiledExpr>,
        negated: bool,
    },
    /// An error deferred to evaluation time.
    Fail(ExecError),
}

/// One aggregate call of a grouped query, with its argument compiled in
/// scalar context. `arg: None` encodes `COUNT(*)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledAggregate {
    pub func: AggFunc,
    pub arg: Option<CompiledExpr>,
    pub distinct: bool,
}

/// Compiles expressions against one binder. In a grouped query it also
/// collects the distinct aggregate calls, in first-appearance order, and
/// numbers them as slots.
pub(crate) struct Compiler<'b> {
    binder: &'b Binder,
    aggregates: Option<Vec<Expr>>,
}

impl<'b> Compiler<'b> {
    /// A compiler for scalar context: aggregates compile to a deferred
    /// error.
    pub fn scalar(binder: &'b Binder) -> Self {
        Self {
            binder,
            aggregates: None,
        }
    }

    /// A compiler for the output side of a grouped query: each distinct
    /// aggregate call becomes a slot.
    pub fn grouped(binder: &'b Binder) -> Self {
        Self {
            binder,
            aggregates: Some(Vec::new()),
        }
    }

    /// The aggregate calls collected so far, one per slot, with their
    /// arguments compiled in scalar context.
    pub fn aggregates(&self) -> Vec<CompiledAggregate> {
        let mut scalar = Compiler::scalar(self.binder);
        self.aggregates
            .iter()
            .flatten()
            .filter_map(|e| match e {
                Expr::Aggregate {
                    func,
                    arg,
                    distinct,
                } => Some(CompiledAggregate {
                    func: *func,
                    arg: arg.as_deref().map(|a| scalar.compile(a)),
                    distinct: *distinct,
                }),
                _ => None,
            })
            .collect()
    }

    /// Compiles one expression.
    pub fn compile(&mut self, expr: &Expr) -> CompiledExpr {
        match expr {
            Expr::Literal(lit) => match literal_value(lit) {
                Ok(v) => CompiledExpr::Const(v),
                Err(e) => CompiledExpr::Fail(e),
            },
            Expr::Column(c) => match self.binder.resolve(c) {
                Ok(bc) => CompiledExpr::Column(bc),
                Err(e) => CompiledExpr::Fail(e),
            },
            Expr::Neg(inner) => CompiledExpr::Neg(self.boxed(inner)),
            Expr::Not(inner) => CompiledExpr::Not(self.boxed(inner)),
            Expr::And(children) => {
                CompiledExpr::And(children.iter().map(|c| self.compile(c)).collect())
            }
            Expr::Or(children) => {
                CompiledExpr::Or(children.iter().map(|c| self.compile(c)).collect())
            }
            Expr::Binary { left, op, right } => CompiledExpr::Binary {
                left: self.boxed(left),
                op: *op,
                right: self.boxed(right),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => CompiledExpr::InList {
                expr: self.boxed(expr),
                list: list.iter().map(|c| self.compile(c)).collect(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => CompiledExpr::Between {
                expr: self.boxed(expr),
                low: self.boxed(low),
                high: self.boxed(high),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
                expr: self.boxed(expr),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => CompiledExpr::Like {
                expr: self.boxed(expr),
                pattern: self.boxed(pattern),
                negated: *negated,
            },
            Expr::Aggregate { .. } => match &mut self.aggregates {
                Some(aggs) => {
                    let slot = aggs.iter().position(|a| a == expr).unwrap_or_else(|| {
                        aggs.push(expr.clone());
                        aggs.len() - 1
                    });
                    CompiledExpr::Aggregate(slot)
                }
                None => CompiledExpr::Fail(ExecError::Eval(
                    "aggregate evaluated in scalar context".into(),
                )),
            },
        }
    }

    fn boxed(&mut self, expr: &Expr) -> Box<CompiledExpr> {
        Box::new(self.compile(expr))
    }
}

impl CompiledExpr {
    /// Compiles `expr` in scalar context (aggregates fail when evaluated).
    pub(crate) fn compile(expr: &Expr, binder: &Binder) -> Self {
        Compiler::scalar(binder).compile(expr)
    }

    /// Evaluates against `tuple` (one optional row per bound table) and the
    /// current group's aggregate results `aggs` (empty outside grouping).
    pub(crate) fn eval<'a>(
        &'a self,
        tuple: &'a Tuple<'_>,
        aggs: &'a [Value],
    ) -> Result<Cow<'a, Value>, ExecError> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match self {
            CompiledExpr::Const(v) => Ok(Cow::Borrowed(v)),
            CompiledExpr::Column(bc) => match tuple.get(bc.table_idx) {
                Some(Some(row)) => Ok(Cow::Borrowed(&row[bc.col_idx])),
                Some(None) => Err(ExecError::Eval(format!(
                    "table instance {} is not bound in this context",
                    bc.table_idx
                ))),
                None => Err(ExecError::Eval(format!(
                    "table index {} out of range",
                    bc.table_idx
                ))),
            },
            CompiledExpr::Aggregate(slot) => Ok(Cow::Borrowed(&aggs[*slot])),
            CompiledExpr::Neg(inner) => match inner.eval(tuple, aggs)?.as_ref() {
                Value::Int(i) => i
                    .checked_neg()
                    .map(|n| Cow::Owned(Value::Int(n)))
                    .ok_or_else(|| ExecError::Eval("integer overflow".into())),
                Value::Float(f) => owned(Value::Float(-f)),
                Value::Null => owned(Value::Null),
                other => Err(ExecError::Eval(format!("cannot negate {other}"))),
            },
            CompiledExpr::Not(inner) => match inner.eval(tuple, aggs)?.as_ref() {
                Value::Bool(b) => owned(Value::Bool(!b)),
                Value::Null => owned(Value::Null),
                other => Err(ExecError::Eval(format!("NOT of non-boolean {other}"))),
            },
            CompiledExpr::And(children) => {
                // SQL three-valued AND: false dominates, then NULL.
                let mut saw_null = false;
                for c in children {
                    match c.eval(tuple, aggs)?.as_ref() {
                        Value::Bool(false) => return owned(Value::Bool(false)),
                        Value::Bool(true) => {}
                        Value::Null => saw_null = true,
                        other => {
                            return Err(ExecError::Eval(format!("AND of non-boolean {other}")))
                        }
                    }
                }
                owned(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(true)
                })
            }
            CompiledExpr::Or(children) => {
                let mut saw_null = false;
                for c in children {
                    match c.eval(tuple, aggs)?.as_ref() {
                        Value::Bool(true) => return owned(Value::Bool(true)),
                        Value::Bool(false) => {}
                        Value::Null => saw_null = true,
                        other => return Err(ExecError::Eval(format!("OR of non-boolean {other}"))),
                    }
                }
                owned(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            CompiledExpr::Binary { left, op, right } => {
                let l = left.eval(tuple, aggs)?;
                let r = right.eval(tuple, aggs)?;
                eval_binary(&l, *op, &r).map(Cow::Owned)
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(tuple, aggs)?;
                if v.is_null() {
                    return owned(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(tuple, aggs)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if iv == v {
                        return owned(Value::Bool(!negated));
                    }
                }
                owned(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                })
            }
            CompiledExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(tuple, aggs)?;
                let lo = low.eval(tuple, aggs)?;
                let hi = high.eval(tuple, aggs)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return owned(Value::Null);
                }
                let inside = v >= lo && v <= hi;
                owned(Value::Bool(inside != *negated))
            }
            CompiledExpr::IsNull { expr, negated } => {
                let v = expr.eval(tuple, aggs)?;
                owned(Value::Bool(v.is_null() != *negated))
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(tuple, aggs)?;
                let p = pattern.eval(tuple, aggs)?;
                match (v.as_ref(), p.as_ref()) {
                    (Value::Null, _) | (_, Value::Null) => owned(Value::Null),
                    (Value::Str(s), Value::Str(pat)) => {
                        owned(Value::Bool(like_match(s, pat) != *negated))
                    }
                    (a, b) => Err(ExecError::Eval(format!("LIKE on non-strings {a}, {b}"))),
                }
            }
            CompiledExpr::Fail(e) => Err(e.clone()),
        }
    }
}

/// Converts a literal to a runtime value.
pub fn literal_value(lit: &Literal) -> Result<Value, ExecError> {
    match lit {
        Literal::Int(v) => Ok(Value::Int(*v)),
        Literal::Float(v) => Ok(Value::Float(*v)),
        Literal::Str(s) => Ok(Value::Str(s.clone())),
        Literal::Bool(b) => Ok(Value::Bool(*b)),
        Literal::Null => Ok(Value::Null),
        Literal::Param => Err(ExecError::Eval(
            "unbound ? parameter at execution time".into(),
        )),
    }
}

/// Evaluates a binary operator on two values.
pub fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value, ExecError> {
    use BinOp::*;
    match op {
        NullSafeEq => return Ok(Value::Bool(l == r)),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.cmp(r);
            let b = match op {
                Eq => ord.is_eq(),
                NotEq => ord.is_ne(),
                Lt => ord.is_lt(),
                LtEq => ord.is_le(),
                Gt => ord.is_gt(),
                GtEq => ord.is_ge(),
                _ => unreachable!(),
            };
            return Ok(Value::Bool(b));
        }
        _ => {}
    }
    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                Add => a.checked_add(*b),
                Sub => a.checked_sub(*b),
                Mul => a.checked_mul(*b),
                Div => {
                    if *b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_div(*b)
                }
                Mod => {
                    if *b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_rem(*b)
                }
                _ => unreachable!("comparison handled above"),
            };
            v.map(Value::Int)
                .ok_or_else(|| ExecError::Eval("integer overflow".into()))
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(ExecError::Eval(format!(
                    "arithmetic on non-numeric values {l}, {r}"
                )));
            };
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => unreachable!("comparison handled above"),
            };
            Ok(Value::Float(v))
        }
    }
}

/// True if a filter predicate accepts the row (NULL counts as rejection).
pub fn is_true(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// SQL LIKE matching with `%` (any run) and `_` (any one character).
///
/// Iterative: on a mismatch only the most recent `%` absorbs one more
/// character, which is enough because an earlier `%` can never help once
/// a later one has matched. Runs in O(|s| · |pattern|) and allocates
/// nothing.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (mut si, mut pi) = (0usize, 0usize);
    // (pattern position after the last `%`, text position it resumes at).
    let mut resume: Option<(usize, usize)> = None;
    loop {
        match (pattern[pi..].chars().next(), s[si..].chars().next()) {
            (Some('%'), _) => {
                pi += 1;
                resume = Some((pi, si));
                continue;
            }
            (Some('_'), Some(c)) => {
                pi += 1;
                si += c.len_utf8();
                continue;
            }
            (Some(p), Some(c)) if p == c => {
                pi += p.len_utf8();
                si += c.len_utf8();
                continue;
            }
            (None, None) => return true,
            _ => {}
        }
        // Mismatch: let the last `%` absorb one more character.
        let Some((rp, rs)) = resume else {
            return false;
        };
        let Some(c) = s[rs..].chars().next() else {
            return false;
        };
        resume = Some((rp, rs + c.len_utf8()));
        pi = rp;
        si = rs + c.len_utf8();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::parse_statement;
    use aim_sql::Statement;
    use aim_storage::{ColumnDef, ColumnType, Database, TableSchema};

    fn setup() -> (Database, Binder, Row) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("x", ColumnType::Int),
                    ColumnDef::new("s", ColumnType::Str),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let select = match parse_statement("SELECT id FROM t").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let binder = Binder::for_select(&db, &select).unwrap();
        let row = vec![Value::Int(1), Value::Int(10), Value::Str("abc".into())];
        (db, binder, row)
    }

    fn try_eval_where(sql_pred: &str) -> Result<Value, ExecError> {
        let (_db, binder, row) = setup();
        let stmt = parse_statement(&format!("SELECT id FROM t WHERE {sql_pred}")).unwrap();
        let pred = match stmt {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        };
        let tuple = [Some(Cow::Borrowed(&row))];
        CompiledExpr::compile(&pred, &binder)
            .eval(&tuple, &[])
            .map(Cow::into_owned)
    }

    fn eval_where(sql_pred: &str) -> Value {
        try_eval_where(sql_pred).unwrap()
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_where("x = 10"), Value::Bool(true));
        assert_eq!(eval_where("x > 10"), Value::Bool(false));
        assert_eq!(eval_where("x >= 10"), Value::Bool(true));
        assert_eq!(eval_where("x <> 3"), Value::Bool(true));
    }

    #[test]
    fn null_propagation_in_comparison() {
        assert_eq!(eval_where("x = NULL"), Value::Null);
        assert_eq!(eval_where("x <=> NULL"), Value::Bool(false));
        assert_eq!(eval_where("NULL <=> NULL"), Value::Bool(true));
    }

    #[test]
    fn three_valued_and_or() {
        assert_eq!(eval_where("x = 10 AND s = NULL"), Value::Null);
        assert_eq!(eval_where("x = 99 AND s = NULL"), Value::Bool(false));
        assert_eq!(eval_where("x = 10 OR s = NULL"), Value::Bool(true));
        assert_eq!(eval_where("x = 99 OR s = NULL"), Value::Null);
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval_where("x IN (1, 10)"), Value::Bool(true));
        assert_eq!(eval_where("x IN (1, 2)"), Value::Bool(false));
        assert_eq!(eval_where("x IN (1, NULL)"), Value::Null);
        assert_eq!(eval_where("x NOT IN (1, 2)"), Value::Bool(true));
    }

    #[test]
    fn between_and_is_null() {
        assert_eq!(eval_where("x BETWEEN 5 AND 15"), Value::Bool(true));
        assert_eq!(eval_where("x NOT BETWEEN 5 AND 15"), Value::Bool(false));
        assert_eq!(eval_where("s IS NULL"), Value::Bool(false));
        assert_eq!(eval_where("s IS NOT NULL"), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a%"));
        assert!(like_match("abc", "%c"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("abc", "%"));
        assert!(!like_match("abc", "b%"));
        assert!(!like_match("abc", "a_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert_eq!(eval_where("s LIKE 'ab%'"), Value::Bool(true));
        // `_` is one Unicode character, not one byte.
        assert!(like_match("né", "n_"));
        assert!(!like_match("né", "n__"));
        assert!(like_match("日本語", "_本%"));
        assert!(like_match("añbñc", "%ñc"));
        assert!(!like_match("añbñc", "%ñb"));
        // Backtracking past a partial match of the text after a `%`.
        assert!(like_match("aab", "%ab"));
        assert!(like_match("abcabd", "%ab_"));
        // Many wildcards against a long near-miss: the old recursive
        // matcher took exponential time here.
        let long = "a".repeat(200);
        assert!(!like_match(&long, "%a%a%a%a%a%a%b"));
        assert!(like_match(&format!("{long}b"), "%a%a%a%a%a%a%b"));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_where("x + 5 = 15"), Value::Bool(true));
        assert_eq!(eval_where("x * 2 = 20"), Value::Bool(true));
        assert_eq!(eval_where("x / 0 = 1"), Value::Null);
        assert_eq!(eval_where("x % 3 = 1"), Value::Bool(true));
        assert_eq!(eval_where("-x = 0 - 10"), Value::Bool(true));
    }

    #[test]
    fn mixed_int_float_arithmetic() {
        assert_eq!(eval_where("x + 0.5 = 10.5"), Value::Bool(true));
    }

    #[test]
    fn unbound_param_is_error() {
        assert!(try_eval_where("x = ?").is_err());
        // The error is deferred: a short-circuited branch never raises it.
        assert_eq!(eval_where("x = 99 AND s = ?"), Value::Bool(false));
    }

    #[test]
    fn is_true_rejects_null() {
        assert!(is_true(&Value::Bool(true)));
        assert!(!is_true(&Value::Bool(false)));
        assert!(!is_true(&Value::Null));
    }
}
