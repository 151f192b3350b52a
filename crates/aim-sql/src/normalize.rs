//! Query normalization (parameterization), §III-A1 of the paper.
//!
//! A normalized query replaces every literal with a `?` placeholder so that
//! executions of the same query *shape* — differing only in constants —
//! aggregate under a single fingerprint in the workload monitor. `IN` lists
//! additionally collapse to a single placeholder, since list length varies
//! per execution.

use crate::ast::*;

/// Stable 64-bit fingerprint of a normalized query (FNV-1a over its text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u64);

impl std::fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The result of normalizing a statement: the parameterized AST, its SQL
/// text, and a fingerprint derived from the text.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedQuery {
    pub statement: Statement,
    pub text: String,
    pub fingerprint: QueryFingerprint,
}

/// Normalizes a statement by replacing every literal with `?` and collapsing
/// `IN` lists, then fingerprints the printed form.
pub fn normalize_statement(stmt: &Statement) -> NormalizedQuery {
    let statement = match stmt {
        Statement::Select(s) => Statement::Select(normalize_select(s)),
        Statement::Insert(i) => Statement::Insert(Insert {
            table: i.table.clone(),
            columns: i.columns.clone(),
            // All VALUES rows collapse to one row of placeholders: batch
            // size should not change the query's identity.
            rows: vec![vec![Expr::Literal(Literal::Param); i.columns.len().max(
                i.rows.first().map_or(0, Vec::len),
            )]],
        }),
        Statement::Update(u) => Statement::Update(Update {
            table: u.table.clone(),
            assignments: u
                .assignments
                .iter()
                .map(|(c, e)| (c.clone(), normalize_expr(e)))
                .collect(),
            where_clause: u.where_clause.as_ref().map(normalize_expr),
        }),
        Statement::Delete(d) => Statement::Delete(Delete {
            table: d.table.clone(),
            where_clause: d.where_clause.as_ref().map(normalize_expr),
        }),
        // DDL has no parameters worth collapsing.
        other => other.clone(),
    };
    let text = statement.to_string();
    let fingerprint = QueryFingerprint(fnv1a(text.as_bytes()));
    NormalizedQuery {
        statement,
        text,
        fingerprint,
    }
}

fn normalize_select(s: &Select) -> Select {
    Select {
        distinct: s.distinct,
        items: s
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: normalize_expr(expr),
                    alias: alias.clone(),
                },
            })
            .collect(),
        from: s.from.clone(),
        where_clause: s.where_clause.as_ref().map(normalize_expr),
        group_by: s.group_by.iter().map(normalize_expr).collect(),
        having: s.having.as_ref().map(normalize_expr),
        order_by: s
            .order_by
            .iter()
            .map(|o| OrderByItem {
                expr: normalize_expr(&o.expr),
                desc: o.desc,
            })
            .collect(),
        limit: s.limit.as_ref().map(normalize_expr),
    }
}

fn normalize_expr(e: &Expr) -> Expr {
    match e {
        Expr::Literal(_) => Expr::Literal(Literal::Param),
        Expr::Column(c) => Expr::Column(c.clone()),
        Expr::And(children) => Expr::And(children.iter().map(normalize_expr).collect()),
        Expr::Or(children) => Expr::Or(children.iter().map(normalize_expr).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(normalize_expr(inner))),
        // A negated literal is one literal (`-5` parses as `Neg(5)`), so it
        // becomes one placeholder like `5` does.
        Expr::Neg(inner) => match normalize_expr(inner) {
            param @ Expr::Literal(Literal::Param) => param,
            other => Expr::Neg(Box::new(other)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(normalize_expr(left)),
            op: *op,
            right: Box::new(normalize_expr(right)),
        },
        Expr::InList {
            expr,
            list: _,
            negated,
        } => Expr::InList {
            expr: Box::new(normalize_expr(expr)),
            // Collapse the whole list to one placeholder.
            list: vec![Expr::Literal(Literal::Param)],
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(normalize_expr(expr)),
            low: Box::new(normalize_expr(low)),
            high: Box::new(normalize_expr(high)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(normalize_expr(expr)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(normalize_expr(expr)),
            pattern: Box::new(normalize_expr(pattern)),
            negated: *negated,
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(normalize_expr(a))),
            distinct: *distinct,
        },
    }
}

/// FNV-1a hash, used for stable cross-run fingerprints (unlike `DefaultHasher`
/// which is seeded per process).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    fn norm(sql: &str) -> NormalizedQuery {
        normalize_statement(&parse_statement(sql).unwrap())
    }

    #[test]
    fn literals_become_params() {
        let n = norm("SELECT id, name FROM students WHERE score > 90");
        assert_eq!(n.text, "SELECT id, name FROM students WHERE score > ?");
    }

    #[test]
    fn negative_literals_become_params() {
        let neg = norm("SELECT x FROM t WHERE a = -5 AND b BETWEEN -2.5 AND -(-3)");
        let pos = norm("SELECT x FROM t WHERE a = 5 AND b BETWEEN 2.5 AND ?");
        assert_eq!(
            neg.text,
            "SELECT x FROM t WHERE a = ? AND b BETWEEN ? AND ?"
        );
        assert_eq!(neg.fingerprint, pos.fingerprint);
        // A negated column keeps its shape.
        assert_eq!(
            norm("SELECT x FROM t WHERE -a = 1").text,
            "SELECT x FROM t WHERE -(a) = ?"
        );
    }

    #[test]
    fn same_shape_same_fingerprint() {
        let a = norm("SELECT x FROM t WHERE a = 1 AND b = 'p'");
        let b = norm("SELECT x FROM t WHERE a = 42 AND b = 'q'");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn different_shape_different_fingerprint() {
        let a = norm("SELECT x FROM t WHERE a = 1");
        let b = norm("SELECT x FROM t WHERE b = 1");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn in_lists_collapse() {
        let a = norm("SELECT x FROM t WHERE a IN (1, 2, 3)");
        let b = norm("SELECT x FROM t WHERE a IN (9)");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.text, "SELECT x FROM t WHERE a IN (?)");
    }

    #[test]
    fn insert_batch_size_collapses() {
        let a = norm("INSERT INTO t (a, b) VALUES (1, 2)");
        let b = norm("INSERT INTO t (a, b) VALUES (1, 2), (3, 4), (5, 6)");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn update_and_delete_normalize() {
        let u = norm("UPDATE t SET a = 5 WHERE id = 9");
        assert_eq!(u.text, "UPDATE t SET a = ? WHERE id = ?");
        let d = norm("DELETE FROM t WHERE id = 9");
        assert_eq!(d.text, "DELETE FROM t WHERE id = ?");
    }

    #[test]
    fn normalization_is_idempotent() {
        let once = norm("SELECT x FROM t WHERE a = 1 AND b IN (1,2)");
        let twice = normalize_statement(&once.statement);
        assert_eq!(once.fingerprint, twice.fingerprint);
        assert_eq!(once.text, twice.text);
    }

    #[test]
    fn fnv1a_reference_vector() {
        // Known FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn order_by_direction_is_preserved() {
        let a = norm("SELECT x FROM t ORDER BY a DESC");
        let b = norm("SELECT x FROM t ORDER BY a ASC");
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
