//! Test support: the tree-walking interpreter the compiled evaluator
//! replaced, kept as the oracle for property tests.
//!
//! It resolves every column by name and clones every value on each
//! evaluation, and matches LIKE with the original recursive matcher. It
//! differs from the original in one place: negating `i64::MIN` is an
//! integer-overflow error here, as in [`crate::eval`], instead of a debug
//! panic or release wrap-around.

use crate::bind::Binder;
use crate::error::ExecError;
use crate::eval::{eval_binary, literal_value};
use aim_sql::ast::Expr;
use aim_storage::{Row, Value};

/// Evaluation environment: the current row of each bound table instance.
pub struct Env<'a> {
    rows: &'a [Option<&'a Row>],
}

impl<'a> Env<'a> {
    pub fn new(rows: &'a [Option<&'a Row>]) -> Self {
        Self { rows }
    }

    fn get(&self, table_idx: usize, col_idx: usize) -> Result<Value, ExecError> {
        match self.rows.get(table_idx) {
            Some(Some(row)) => Ok(row[col_idx].clone()),
            Some(None) => Err(ExecError::Eval(format!(
                "table instance {table_idx} is not bound in this context"
            ))),
            None => Err(ExecError::Eval(format!(
                "table index {table_idx} out of range"
            ))),
        }
    }
}

/// Evaluates `expr` to a value, resolving names through `binder`.
pub fn eval(expr: &Expr, binder: &Binder, env: &Env<'_>) -> Result<Value, ExecError> {
    match expr {
        Expr::Literal(lit) => literal_value(lit),
        Expr::Column(c) => {
            let bc = binder.resolve(c)?;
            env.get(bc.table_idx, bc.col_idx)
        }
        Expr::Neg(inner) => match eval(inner, binder, env)? {
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| ExecError::Eval("integer overflow".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(ExecError::Eval(format!("cannot negate {other}"))),
        },
        Expr::Not(inner) => match eval(inner, binder, env)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(ExecError::Eval(format!("NOT of non-boolean {other}"))),
        },
        Expr::And(children) => {
            let mut saw_null = false;
            for c in children {
                match eval(c, binder, env)? {
                    Value::Bool(false) => return Ok(Value::Bool(false)),
                    Value::Bool(true) => {}
                    Value::Null => saw_null = true,
                    other => return Err(ExecError::Eval(format!("AND of non-boolean {other}"))),
                }
            }
            Ok(if saw_null {
                Value::Null
            } else {
                Value::Bool(true)
            })
        }
        Expr::Or(children) => {
            let mut saw_null = false;
            for c in children {
                match eval(c, binder, env)? {
                    Value::Bool(true) => return Ok(Value::Bool(true)),
                    Value::Bool(false) => {}
                    Value::Null => saw_null = true,
                    other => return Err(ExecError::Eval(format!("OR of non-boolean {other}"))),
                }
            }
            Ok(if saw_null {
                Value::Null
            } else {
                Value::Bool(false)
            })
        }
        Expr::Binary { left, op, right } => {
            let l = eval(left, binder, env)?;
            let r = eval(right, binder, env)?;
            eval_binary(&l, *op, &r)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, binder, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, binder, env)?;
                if iv.is_null() {
                    saw_null = true;
                } else if iv == v {
                    return Ok(Value::Bool(!negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, binder, env)?;
            let lo = eval(low, binder, env)?;
            let hi = eval(high, binder, env)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let inside = v >= lo && v <= hi;
            Ok(Value::Bool(inside != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, binder, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, binder, env)?;
            let p = eval(pattern, binder, env)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    Ok(Value::Bool(like_match(&s, &pat) != *negated))
                }
                (a, b) => Err(ExecError::Eval(format!("LIKE on non-strings {a}, {b}"))),
            }
        }
        Expr::Aggregate { .. } => Err(ExecError::Eval(
            "aggregate evaluated in scalar context".into(),
        )),
    }
}

/// The original recursive LIKE matcher: exponential in the number of `%`
/// on a near miss, so callers keep inputs short.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => !s.is_empty() && s[0] == *c && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::CompiledExpr;
    use aim_sql::ast::{AggFunc, BinOp, ColumnRef, Literal, Select, TableRef};
    use aim_storage::{ColumnDef, ColumnType, Database, TableSchema};
    use std::borrow::Cow;

    /// SplitMix64: a seeded generator for the property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }
    }

    const COLUMNS: &[&str] = &["id", "x", "f", "s", "b"];
    const CHARS: &[char] = &['a', 'b', 'é', '日', '%', '_'];

    fn binder() -> Binder {
        let mut db = Database::new();
        for (name, extra) in [("t", "x"), ("u", "y")] {
            db.create_table(
                TableSchema::new(
                    name,
                    vec![
                        ColumnDef::new("id", ColumnType::Int),
                        ColumnDef::new(extra, ColumnType::Int),
                        ColumnDef::new("f", ColumnType::Float),
                        ColumnDef::new("s", ColumnType::Str),
                        ColumnDef::new("b", ColumnType::Bool),
                    ],
                    &["id"],
                )
                .unwrap(),
            )
            .unwrap();
        }
        let select = Select {
            distinct: false,
            items: Vec::new(),
            from: vec![TableRef::new("t"), TableRef::new("u")],
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        };
        Binder::for_select(&db, &select).unwrap()
    }

    fn random_string(rng: &mut Rng, max_len: usize) -> String {
        (0..rng.below(max_len + 1))
            .map(|_| *rng.pick(CHARS))
            .collect()
    }

    fn random_int(rng: &mut Rng) -> i64 {
        match rng.below(6) {
            0 => i64::MAX - rng.below(3) as i64,
            1 => i64::MIN + rng.below(3) as i64,
            2 => 0,
            _ => rng.below(21) as i64 - 10,
        }
    }

    fn random_value(rng: &mut Rng, ty: usize) -> Value {
        if rng.below(5) == 0 {
            return Value::Null;
        }
        match ty {
            0 | 1 => Value::Int(random_int(rng)),
            2 => Value::Float([0.0, -0.0, 1.5, -2.25, 1e308][rng.below(5)]),
            3 => Value::Str(random_string(rng, 4).replace(['%', '_'], "")),
            _ => Value::Bool(rng.below(2) == 0),
        }
    }

    fn random_row(rng: &mut Rng) -> Row {
        (0..COLUMNS.len()).map(|ty| random_value(rng, ty)).collect()
    }

    fn literal(rng: &mut Rng) -> Expr {
        Expr::Literal(match rng.below(9) {
            0 => Literal::Null,
            1 => Literal::Param,
            2 => Literal::Float([0.0, 2.5, -1.0][rng.below(3)]),
            3 => Literal::Str(random_string(rng, 3)),
            4 => Literal::Bool(rng.below(2) == 0),
            _ => Literal::Int(random_int(rng)),
        })
    }

    fn column(rng: &mut Rng) -> Expr {
        let table = ["t", "u"][rng.below(2)];
        match rng.below(12) {
            // Unresolvable or ambiguous names: binding errors at eval time.
            0 => Expr::Column(ColumnRef::bare("nope")),
            1 => Expr::Column(ColumnRef::bare("id")),
            2 => Expr::Column(ColumnRef::bare("y")),
            _ => Expr::Column(ColumnRef::qualified(table, *rng.pick(COLUMNS))),
        }
    }

    fn random_expr(rng: &mut Rng, depth: usize) -> Expr {
        if depth == 0 || rng.below(4) == 0 {
            return if rng.below(2) == 0 {
                literal(rng)
            } else {
                column(rng)
            };
        }
        let sub = |rng: &mut Rng| Box::new(random_expr(rng, depth - 1));
        match rng.below(11) {
            0 => Expr::Neg(sub(rng)),
            1 => Expr::Not(sub(rng)),
            2 => Expr::And((0..2 + rng.below(2)).map(|_| *sub(rng)).collect()),
            3 => Expr::Or((0..2 + rng.below(2)).map(|_| *sub(rng)).collect()),
            4 | 5 => Expr::Binary {
                left: sub(rng),
                op: *rng.pick(&[
                    BinOp::Eq,
                    BinOp::NotEq,
                    BinOp::Lt,
                    BinOp::LtEq,
                    BinOp::Gt,
                    BinOp::GtEq,
                    BinOp::NullSafeEq,
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                ]),
                right: sub(rng),
            },
            6 => Expr::InList {
                expr: sub(rng),
                list: (0..1 + rng.below(3)).map(|_| *sub(rng)).collect(),
                negated: rng.below(2) == 0,
            },
            7 => Expr::Between {
                expr: sub(rng),
                low: sub(rng),
                high: sub(rng),
                negated: rng.below(2) == 0,
            },
            8 => Expr::IsNull {
                expr: sub(rng),
                negated: rng.below(2) == 0,
            },
            9 => Expr::Like {
                expr: if rng.below(2) == 0 {
                    Box::new(Expr::Column(ColumnRef::qualified("t", "s")))
                } else {
                    sub(rng)
                },
                pattern: if rng.below(3) == 0 {
                    sub(rng)
                } else {
                    Box::new(Expr::Literal(Literal::Str(random_string(rng, 4))))
                },
                negated: rng.below(2) == 0,
            },
            _ => Expr::Aggregate {
                func: AggFunc::Sum,
                arg: Some(sub(rng)),
                distinct: false,
            },
        }
    }

    /// Equality that tells `Int(3)` from `Float(3.0)` and compares floats
    /// bit for bit.
    fn identical(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(_), _) | (_, Value::Float(_)) => false,
            (Value::Int(_), _) | (_, Value::Int(_)) => false,
            _ => a == b,
        }
    }

    #[test]
    fn compiled_evaluation_matches_the_interpreter() {
        let binder = binder();
        let mut rng = Rng(0xE7A1);
        let (mut oks, mut errs) = (0, 0);
        for case in 0..20_000 {
            let expr = random_expr(&mut rng, 4);
            let (t, u) = (random_row(&mut rng), random_row(&mut rng));
            // Sometimes leave the inner table unbound, as mid-join.
            let u_bound = rng.below(4) != 0;
            let refs = [Some(&t), u_bound.then_some(&u)];
            let expected = eval(&expr, &binder, &Env::new(&refs));
            let tuple = [
                Some(Cow::Borrowed(&t)),
                u_bound.then_some(Cow::Borrowed(&u)),
            ];
            let compiled = CompiledExpr::compile(&expr, &binder);
            let actual = compiled.eval(&tuple, &[]).map(Cow::into_owned);
            match (&expected, &actual) {
                (Ok(e), Ok(a)) => {
                    assert!(identical(e, a), "case {case}: {expr}\n{e:?} vs {a:?}");
                    oks += 1;
                }
                (Err(e), Err(a)) => {
                    assert_eq!(e, a, "case {case}: {expr}");
                    errs += 1;
                }
                _ => panic!("case {case}: {expr}\ninterpreter {expected:?}\ncompiled {actual:?}"),
            }
        }
        // The generator exercises both outcomes substantially.
        assert!(oks > 5_000 && errs > 2_000, "{oks} ok, {errs} errors");
    }

    #[test]
    fn like_matcher_matches_the_recursive_matcher() {
        let mut rng = Rng(0x11CE);
        for _ in 0..50_000 {
            let s = random_string(&mut rng, 6);
            let p = random_string(&mut rng, 5);
            let expected = like_match(&s, &p);
            assert_eq!(
                crate::eval::like_match(&s, &p),
                expected,
                "{s:?} LIKE {p:?}"
            );
        }
    }
}
