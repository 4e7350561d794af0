//! Vectorized expressions.
//!
//! Expressions are evaluated column-at-a-time over [`Chunk`]s. The
//! feature set is exactly what the 22 TPC-H queries need: comparisons,
//! boolean algebra, arithmetic, `LIKE` patterns, `IN` lists, `BETWEEN`,
//! `CASE WHEN`, `SUBSTRING` and `EXTRACT(YEAR)`. [`Expr::prune_checks`]
//! extracts zone-map-prunable conjuncts so scans can skip row groups.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use iq_common::{IqError, IqResult};

use crate::chunk::{Chunk, Col};
use crate::value::{date_to_days, year_of, DataType, Value};
use crate::zonemap::{PruneCheck, PruneOp};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Mod,
}

/// A vectorized expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// Membership in a literal list.
    InList(Box<Expr>, Vec<Value>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `SUBSTRING(expr, start, len)` (1-based start, as in SQL).
    Substr(Box<Expr>, usize, usize),
    /// `EXTRACT(YEAR FROM expr)` on dates.
    Year(Box<Expr>),
}

// The builder names (`add`, `not`, …) intentionally mirror SQL operators;
// they are associated constructors, not operator-trait methods.
#[allow(clippy::should_implement_trait)]
impl Expr {
    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Integer literal.
    pub fn lit_i64(v: i64) -> Expr {
        Expr::Lit(Value::I64(v))
    }

    /// Float literal.
    pub fn lit_f64(v: f64) -> Expr {
        Expr::Lit(Value::F64(v))
    }

    /// String literal.
    pub fn lit_str(s: &str) -> Expr {
        Expr::Lit(Value::Str(Arc::from(s)))
    }

    /// Date literal (days since epoch).
    pub fn lit_date(days: i32) -> Expr {
        Expr::Lit(Value::Date(days))
    }

    /// `a = b`
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, a.into(), b.into())
    }

    /// `a <> b`
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, a.into(), b.into())
    }

    /// `a < b`
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, a.into(), b.into())
    }

    /// `a <= b`
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, a.into(), b.into())
    }

    /// `a > b`
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, a.into(), b.into())
    }

    /// `a >= b`
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, a.into(), b.into())
    }

    /// `a AND b`
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(a.into(), b.into())
    }

    /// Conjunction of several terms.
    pub fn and_all(terms: Vec<Expr>) -> Expr {
        terms
            .into_iter()
            .reduce(Expr::and)
            .expect("and_all needs at least one term")
    }

    /// `a OR b`
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(a.into(), b.into())
    }

    /// `NOT a`
    pub fn not(a: Expr) -> Expr {
        Expr::Not(a.into())
    }

    /// `a + b`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, a.into(), b.into())
    }

    /// `a - b`
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, a.into(), b.into())
    }

    /// `a * b`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, a.into(), b.into())
    }

    /// `a / b`
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, a.into(), b.into())
    }

    /// `a % b`
    pub fn modulo(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mod, a.into(), b.into())
    }

    /// `a LIKE pattern`
    pub fn like(a: Expr, pattern: &str) -> Expr {
        Expr::Like(a.into(), pattern.to_string())
    }

    /// `a IN (values...)`
    pub fn in_list(a: Expr, values: Vec<Value>) -> Expr {
        Expr::InList(a.into(), values)
    }

    /// `a BETWEEN lo AND hi` (inclusive).
    pub fn between(a: Expr, lo: Expr, hi: Expr) -> Expr {
        Expr::and(Expr::ge(a.clone(), lo), Expr::le(a, hi))
    }

    /// `CASE WHEN cond THEN t ELSE e END`
    pub fn case(cond: Expr, t: Expr, e: Expr) -> Expr {
        Expr::Case(cond.into(), t.into(), e.into())
    }

    /// `SUBSTRING(a, start, len)` — 1-based.
    pub fn substr(a: Expr, start: usize, len: usize) -> Expr {
        Expr::Substr(a.into(), start, len)
    }

    /// `EXTRACT(YEAR FROM a)`
    pub fn year(a: Expr) -> Expr {
        Expr::Year(a.into())
    }

    // ------------------------------------------------------------------
    // Analysis
    // ------------------------------------------------------------------

    /// All column indexes referenced.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) | Expr::Like(a, _) | Expr::Substr(a, _, _) | Expr::Year(a) => {
                a.collect_columns(out)
            }
            Expr::InList(a, _) => a.collect_columns(out),
            Expr::Case(c, t, e) => {
                c.collect_columns(out);
                t.collect_columns(out);
                e.collect_columns(out);
            }
        }
    }

    /// Zone-prunable checks extracted from top-level AND conjuncts:
    /// `col op literal` (either side, `<>` included), `col IN (list)`,
    /// prefix `LIKE` folded to a lexical range, and
    /// `EXTRACT(YEAR FROM col) op literal` folded against date zones.
    /// `BETWEEN` desugars to two comparisons and needs no special case.
    pub fn prune_checks(&self) -> Vec<PruneCheck> {
        let mut out = Vec::new();
        self.collect_prunes(&mut out);
        out
    }

    fn collect_prunes(&self, out: &mut Vec<PruneCheck>) {
        match self {
            Expr::And(a, b) => {
                a.collect_prunes(out);
                b.collect_prunes(out);
            }
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(v)) => push_cmp_check(out, *i, *op, v),
                (Expr::Lit(v), Expr::Col(i)) => push_cmp_check(out, *i, flip(*op), v),
                (Expr::Year(d), Expr::Lit(Value::I64(y))) => {
                    if let Expr::Col(i) = d.as_ref() {
                        push_year_check(out, *i, *op, *y);
                    }
                }
                (Expr::Lit(Value::I64(y)), Expr::Year(d)) => {
                    if let Expr::Col(i) = d.as_ref() {
                        push_year_check(out, *i, flip(*op), *y);
                    }
                }
                _ => {}
            },
            Expr::InList(a, values) => {
                if let Expr::Col(i) = a.as_ref() {
                    out.push(PruneCheck::In(*i, values.clone()));
                }
            }
            Expr::Like(a, pattern) => {
                if let Expr::Col(i) = a.as_ref() {
                    push_like_check(out, *i, pattern);
                }
            }
            _ => {}
        }
    }

    /// String columns safe to evaluate in the dictionary code domain:
    /// every occurrence is `col =/<> string-literal` (either side) or
    /// `col IN (string-literals)`. Equality is preserved by the
    /// dictionary's injective string↔code mapping; order is not, so any
    /// other use (range, `LIKE`, `SUBSTRING`, …) disqualifies the column.
    /// `is_dict_str` restricts candidates to dictionary-backed string
    /// columns of the scanned schema.
    pub fn dict_eval_columns(&self, is_dict_str: &dyn Fn(usize) -> bool) -> Vec<usize> {
        let mut safe: BTreeMap<usize, bool> = BTreeMap::new();
        self.dict_walk(&mut safe);
        safe.into_iter()
            .filter(|&(c, ok)| ok && is_dict_str(c))
            .map(|(c, _)| c)
            .collect()
    }

    fn dict_walk(&self, safe: &mut BTreeMap<usize, bool>) {
        match self {
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.dict_walk(safe);
                b.dict_walk(safe);
            }
            Expr::Not(a) => a.dict_walk(safe),
            Expr::Cmp(CmpOp::Eq | CmpOp::Ne, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(Value::Str(_)))
                | (Expr::Lit(Value::Str(_)), Expr::Col(i)) => {
                    safe.entry(*i).or_insert(true);
                }
                _ => {
                    a.mark_dict_unsafe(safe);
                    b.mark_dict_unsafe(safe);
                }
            },
            Expr::InList(a, values) => match a.as_ref() {
                Expr::Col(i) if values.iter().all(|v| matches!(v, Value::Str(_))) => {
                    safe.entry(*i).or_insert(true);
                }
                _ => a.mark_dict_unsafe(safe),
            },
            other => other.mark_dict_unsafe(safe),
        }
    }

    fn mark_dict_unsafe(&self, safe: &mut BTreeMap<usize, bool>) {
        for c in self.columns() {
            safe.insert(c, false);
        }
    }

    /// Rewrite occurrences of `cols` (which must satisfy
    /// [`dict_eval_columns`](Expr::dict_eval_columns)) into i64 code
    /// comparisons. `lookup` resolves a literal to its dictionary code;
    /// literals absent from a dictionary become the sentinel `-1`, which
    /// no stored code equals — equality stays false, inequality true,
    /// exactly matching string-domain semantics.
    pub fn rewrite_for_dict(
        &self,
        cols: &[usize],
        lookup: &dyn Fn(usize, &str) -> Option<u32>,
    ) -> Expr {
        let code = |i: usize, s: &str| -> i64 { lookup(i, s).map(|c| c as i64).unwrap_or(-1) };
        match self {
            Expr::And(a, b) => Expr::And(
                a.rewrite_for_dict(cols, lookup).into(),
                b.rewrite_for_dict(cols, lookup).into(),
            ),
            Expr::Or(a, b) => Expr::Or(
                a.rewrite_for_dict(cols, lookup).into(),
                b.rewrite_for_dict(cols, lookup).into(),
            ),
            Expr::Not(a) => Expr::Not(a.rewrite_for_dict(cols, lookup).into()),
            Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(Value::Str(s))) if cols.contains(i) => Expr::Cmp(
                    *op,
                    Expr::Col(*i).into(),
                    Expr::Lit(Value::I64(code(*i, s))).into(),
                ),
                (Expr::Lit(Value::Str(s)), Expr::Col(i)) if cols.contains(i) => Expr::Cmp(
                    *op,
                    Expr::Lit(Value::I64(code(*i, s))).into(),
                    Expr::Col(*i).into(),
                ),
                _ => self.clone(),
            },
            Expr::InList(a, values) => match a.as_ref() {
                Expr::Col(i) if cols.contains(i) => {
                    // Misses drop out of the list; an all-miss list keeps
                    // its always-false shape via the sentinel.
                    let codes: Vec<Value> = values
                        .iter()
                        .filter_map(Value::as_str)
                        .filter_map(|s| lookup(*i, s))
                        .map(|c| Value::I64(c as i64))
                        .collect();
                    if codes.is_empty() {
                        Expr::Cmp(
                            CmpOp::Eq,
                            Expr::Col(*i).into(),
                            Expr::Lit(Value::I64(-1)).into(),
                        )
                    } else {
                        Expr::InList(Expr::Col(*i).into(), codes)
                    }
                }
                _ => self.clone(),
            },
            other => other.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluate to a boolean mask. `remap` maps schema column indexes to
    /// chunk positions.
    pub fn eval_mask(&self, chunk: &Chunk, remap: &BTreeMap<usize, usize>) -> IqResult<Vec<bool>> {
        match self.eval(chunk, remap)? {
            Col::Bool(v) => Ok(v),
            other => Err(IqError::Invalid(format!(
                "predicate evaluated to {:?}, expected booleans",
                other.data_type()
            ))),
        }
    }

    /// Evaluate to a column.
    pub fn eval(&self, chunk: &Chunk, remap: &BTreeMap<usize, usize>) -> IqResult<Col> {
        Ok(self.operand(chunk, remap)?.col(chunk.len()).into_owned())
    }

    /// Evaluate without copying: a column reference borrows the input
    /// column and a literal stays a scalar, so comparisons and arithmetic
    /// against literals run column-vs-scalar.
    fn operand<'a>(
        &'a self,
        chunk: &'a Chunk,
        remap: &BTreeMap<usize, usize>,
    ) -> IqResult<Operand<'a>> {
        let n = chunk.len();
        let col = |e: &'a Expr| -> IqResult<Cow<'a, Col>> { Ok(e.operand(chunk, remap)?.col(n)) };
        let out = match self {
            Expr::Col(i) => {
                let pos = remap
                    .get(i)
                    .copied()
                    .ok_or_else(|| IqError::Invalid(format!("column {i} not in chunk")))?;
                return Ok(Operand::Col(Cow::Borrowed(chunk.col(pos))));
            }
            Expr::Lit(v) => return Ok(Operand::Lit(v)),
            Expr::Cmp(op, a, b) => {
                let a = a.operand(chunk, remap)?;
                let b = b.operand(chunk, remap)?;
                eval_cmp(*op, n, a.view(), b.view())?
            }
            Expr::And(a, b) => {
                let (a, b) = (col(a)?, col(b)?);
                Col::Bool(
                    a.bools()
                        .iter()
                        .zip(b.bools())
                        .map(|(&x, &y)| x && y)
                        .collect(),
                )
            }
            Expr::Or(a, b) => {
                let (a, b) = (col(a)?, col(b)?);
                Col::Bool(
                    a.bools()
                        .iter()
                        .zip(b.bools())
                        .map(|(&x, &y)| x || y)
                        .collect(),
                )
            }
            Expr::Not(a) => Col::Bool(col(a)?.bools().iter().map(|&x| !x).collect()),
            Expr::Arith(op, a, b) => {
                let a = a.operand(chunk, remap)?;
                let b = b.operand(chunk, remap)?;
                eval_arith(*op, n, a.view(), b.view())?
            }
            Expr::Like(a, pattern) => Col::Bool(
                col(a)?
                    .strs()
                    .iter()
                    .map(|s| like_match(s, pattern))
                    .collect(),
            ),
            Expr::InList(a, values) => {
                let a = col(a)?;
                let mask = match a.as_ref() {
                    Col::Str(v) => {
                        let set: Vec<&str> = values.iter().filter_map(Value::as_str).collect();
                        v.iter().map(|s| set.contains(&s.as_ref())).collect()
                    }
                    Col::I64(v) => {
                        let set: Vec<i64> = values.iter().filter_map(Value::as_i64).collect();
                        v.iter().map(|x| set.contains(x)).collect()
                    }
                    other => {
                        return Err(IqError::Invalid(format!(
                            "IN list over {:?}",
                            other.data_type()
                        )))
                    }
                };
                Col::Bool(mask)
            }
            Expr::Case(c, t, e) => {
                let (c, t, e) = (col(c)?, col(t)?, col(e)?);
                let mask = c.bools();
                match (t.as_ref(), e.as_ref()) {
                    (Col::F64(tv), Col::F64(ev)) => Col::F64(
                        (0..n)
                            .map(|i| if mask[i] { tv[i] } else { ev[i] })
                            .collect(),
                    ),
                    (Col::I64(tv), Col::I64(ev)) => Col::I64(
                        (0..n)
                            .map(|i| if mask[i] { tv[i] } else { ev[i] })
                            .collect(),
                    ),
                    (Col::Str(tv), Col::Str(ev)) => Col::Str(
                        (0..n)
                            .map(|i| Arc::clone(if mask[i] { &tv[i] } else { &ev[i] }))
                            .collect(),
                    ),
                    _ => return Err(IqError::Invalid("CASE branches must match types".into())),
                }
            }
            Expr::Substr(a, start, len) => {
                let s0 = start.saturating_sub(1);
                Col::Str(
                    col(a)?
                        .strs()
                        .iter()
                        .map(|s| {
                            let end = (s0 + len).min(s.len());
                            Arc::from(&s[s0.min(s.len())..end])
                        })
                        .collect(),
                )
            }
            Expr::Year(a) => Col::I64(col(a)?.dates().iter().map(|&d| year_of(d) as i64).collect()),
        };
        Ok(Operand::Col(Cow::Owned(out)))
    }
}

/// An evaluated sub-expression: a column (borrowed from the input when
/// the expression is a column reference) or an unbroadcast literal.
enum Operand<'a> {
    Col(Cow<'a, Col>),
    Lit(&'a Value),
}

impl<'a> Operand<'a> {
    /// As a column of `n` rows (a literal is broadcast).
    fn col(self, n: usize) -> Cow<'a, Col> {
        match self {
            Operand::Col(c) => c,
            Operand::Lit(v) => Cow::Owned(broadcast(v, n)),
        }
    }

    /// Typed view for the binary kernels.
    fn view(&self) -> View<'_> {
        match self {
            Operand::Col(c) => match c.as_ref() {
                Col::I64(v) => View::I64(Arg::Col(v)),
                Col::F64(v) => View::F64(Arg::Col(v)),
                Col::Str(v) => View::Str(Arg::Col(v)),
                Col::Date(v) => View::Date(Arg::Col(v)),
                Col::Bool(_) => View::Bool,
            },
            Operand::Lit(v) => match v {
                Value::I64(x) => View::I64(Arg::Lit(x)),
                Value::F64(x) => View::F64(Arg::Lit(x)),
                Value::Str(x) => View::Str(Arg::Lit(x)),
                Value::Date(x) => View::Date(Arg::Lit(x)),
            },
        }
    }
}

/// One side of a binary kernel: a value per row, or one literal standing
/// for every row.
enum Arg<'a, T> {
    Col(&'a [T]),
    Lit(&'a T),
}

// Manual impls: a borrowed view is `Copy` whatever `T` is.
impl<T> Clone for Arg<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Arg<'_, T> {}

/// A typed binary-kernel operand. Booleans only feed the boolean
/// connectives, never a comparison or arithmetic.
#[derive(Clone, Copy)]
enum View<'a> {
    I64(Arg<'a, i64>),
    F64(Arg<'a, f64>),
    Str(Arg<'a, Arc<str>>),
    Date(Arg<'a, i32>),
    Bool,
}

impl View<'_> {
    fn data_type(&self) -> Option<DataType> {
        match self {
            View::I64(_) => Some(DataType::I64),
            View::F64(_) => Some(DataType::F64),
            View::Str(_) => Some(DataType::Str),
            View::Date(_) => Some(DataType::Date),
            View::Bool => None,
        }
    }
}

/// `f(fa(a[i]), fb(b[i]))` for each of `n` rows, with a literal side
/// converted once instead of per row.
fn zip_map<'a, A, B, X: Copy, Y: Copy, R: Clone>(
    n: usize,
    a: Arg<'a, A>,
    fa: impl Fn(&'a A) -> X,
    b: Arg<'a, B>,
    fb: impl Fn(&'a B) -> Y,
    f: impl Fn(X, Y) -> R,
) -> Vec<R> {
    match (a, b) {
        (Arg::Col(x), Arg::Col(y)) => x.iter().zip(y).map(|(p, q)| f(fa(p), fb(q))).collect(),
        (Arg::Col(x), Arg::Lit(q)) => {
            let q = fb(q);
            x.iter().map(|p| f(fa(p), q)).collect()
        }
        (Arg::Lit(p), Arg::Col(y)) => {
            let p = fa(p);
            y.iter().map(|q| f(p, fb(q))).collect()
        }
        (Arg::Lit(p), Arg::Lit(q)) => vec![f(fa(p), fb(q)); n],
    }
}

/// Comparison kernel over both sides converted to the common type `T`.
fn cmp_args<'a, A, B, T: PartialOrd + Copy>(
    op: CmpOp,
    n: usize,
    a: Arg<'a, A>,
    fa: impl Fn(&'a A) -> T,
    b: Arg<'a, B>,
    fb: impl Fn(&'a B) -> T,
) -> Vec<bool> {
    match op {
        CmpOp::Eq => zip_map(n, a, fa, b, fb, |x, y| x == y),
        CmpOp::Ne => zip_map(n, a, fa, b, fb, |x, y| x != y),
        CmpOp::Lt => zip_map(n, a, fa, b, fb, |x, y| x < y),
        CmpOp::Le => zip_map(n, a, fa, b, fb, |x, y| x <= y),
        CmpOp::Gt => zip_map(n, a, fa, b, fb, |x, y| x > y),
        CmpOp::Ge => zip_map(n, a, fa, b, fb, |x, y| x >= y),
    }
}

fn broadcast(v: &Value, n: usize) -> Col {
    match v {
        Value::I64(x) => Col::I64(vec![*x; n]),
        Value::F64(x) => Col::F64(vec![*x; n]),
        Value::Str(s) => Col::Str(vec![Arc::clone(s); n]),
        Value::Date(d) => Col::Date(vec![*d; n]),
    }
}

fn cmp_to_prune(op: CmpOp) -> Option<PruneOp> {
    match op {
        CmpOp::Eq => Some(PruneOp::Eq),
        CmpOp::Lt => Some(PruneOp::Lt),
        CmpOp::Le => Some(PruneOp::Le),
        CmpOp::Gt => Some(PruneOp::Gt),
        CmpOp::Ge => Some(PruneOp::Ge),
        CmpOp::Ne => None,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn push_cmp_check(out: &mut Vec<PruneCheck>, col: usize, op: CmpOp, lit: &Value) {
    match cmp_to_prune(op) {
        Some(p) => out.push(PruneCheck::Cmp(col, p, lit.clone())),
        None => out.push(PruneCheck::Ne(col, lit.clone())),
    }
}

/// Fold `EXTRACT(YEAR FROM col) op y` into checks on the date column's
/// day-number zone. Years outside the calendar range are skipped —
/// omitting a check is always conservative.
fn push_year_check(out: &mut Vec<PruneCheck>, col: usize, op: CmpOp, y: i64) {
    if !(1..=9998).contains(&y) {
        return;
    }
    let y = y as i32;
    let jan1 = date_to_days(y, 1, 1);
    let dec31 = date_to_days(y, 12, 31);
    match op {
        CmpOp::Eq => {
            out.push(PruneCheck::Cmp(col, PruneOp::Ge, Value::Date(jan1)));
            out.push(PruneCheck::Cmp(col, PruneOp::Le, Value::Date(dec31)));
        }
        // `year <> y` holds somewhere in the group iff its range leaves
        // the year's day interval.
        CmpOp::Ne => out.push(PruneCheck::Outside(col, jan1 as i64, dec31 as i64)),
        CmpOp::Lt => out.push(PruneCheck::Cmp(col, PruneOp::Lt, Value::Date(jan1))),
        CmpOp::Le => out.push(PruneCheck::Cmp(col, PruneOp::Le, Value::Date(dec31))),
        CmpOp::Gt => out.push(PruneCheck::Cmp(
            col,
            PruneOp::Ge,
            Value::Date(date_to_days(y + 1, 1, 1)),
        )),
        CmpOp::Ge => out.push(PruneCheck::Cmp(col, PruneOp::Ge, Value::Date(jan1))),
    }
}

/// Fold a prefix `LIKE` pattern (`'abc%…'`) into the lexical range
/// `[prefix, successor(prefix))`: every match starts with the literal
/// prefix before the first wildcard, so it sorts inside that range.
fn push_like_check(out: &mut Vec<PruneCheck>, col: usize, pattern: &str) {
    let prefix: String = pattern
        .chars()
        .take_while(|&c| c != '%' && c != '_')
        .collect();
    if prefix.is_empty() {
        return;
    }
    out.push(PruneCheck::Cmp(
        col,
        PruneOp::Ge,
        Value::Str(Arc::from(prefix.as_str())),
    ));
    if let Some(succ) = lexical_successor(&prefix) {
        out.push(PruneCheck::Cmp(
            col,
            PruneOp::Lt,
            Value::Str(Arc::from(succ.as_str())),
        ));
    }
}

/// Smallest string greater than every string starting with `prefix`:
/// increment the last character, carrying left past unincrementable code
/// points. `None` when no such string exists (all chars at `char::MAX`).
fn lexical_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(c) = chars.pop() {
        if let Some(next) = char::from_u32(c as u32 + 1) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

fn eval_cmp(op: CmpOp, n: usize, a: View<'_>, b: View<'_>) -> IqResult<Col> {
    let id = |v: &i64| *v;
    let mask = match (a, b) {
        (View::I64(x), View::I64(y)) => cmp_args(op, n, x, id, y, id),
        (View::Date(x), View::Date(y)) => cmp_args(op, n, x, |v| *v, y, |v| *v),
        (View::F64(x), View::F64(y)) => cmp_args(op, n, x, |v| *v, y, |v| *v),
        (View::Str(x), View::Str(y)) => cmp_args(op, n, x, |s| &**s, y, |s| &**s),
        // Numeric promotion.
        (View::I64(x), View::F64(y)) => cmp_args(op, n, x, |&v| v as f64, y, |v| *v),
        (View::F64(x), View::I64(y)) => cmp_args(op, n, x, |v| *v, y, |&v| v as f64),
        // Year() yields I64; allow comparing against date columns' years is
        // not needed, but I64 vs Date comparisons are (partition keys).
        (View::Date(x), View::I64(y)) => cmp_args(op, n, x, |&v| v as i64, y, id),
        (View::I64(x), View::Date(y)) => cmp_args(op, n, x, id, y, |&v| v as i64),
        (a, b) => {
            return Err(IqError::Invalid(format!(
                "cannot compare {:?} with {:?}",
                a.data_type(),
                b.data_type()
            )))
        }
    };
    Ok(Col::Bool(mask))
}

fn eval_arith(op: ArithOp, n: usize, a: View<'_>, b: View<'_>) -> IqResult<Col> {
    let id = |v: &i64| *v;
    match (a, b) {
        (View::I64(x), View::I64(y)) if op == ArithOp::Mod => {
            Ok(Col::I64(zip_map(n, x, id, y, id, |p, q| {
                if q == 0 {
                    0
                } else {
                    p % q
                }
            })))
        }
        (View::I64(x), View::I64(y))
            if matches!(op, ArithOp::Add | ArithOp::Sub | ArithOp::Mul) =>
        {
            Ok(Col::I64(match op {
                ArithOp::Add => zip_map(n, x, id, y, id, |p, q| p + q),
                ArithOp::Sub => zip_map(n, x, id, y, id, |p, q| p - q),
                _ => zip_map(n, x, id, y, id, |p, q| p * q),
            }))
        }
        // Date arithmetic: date ± integer days.
        (View::Date(x), View::I64(y)) if matches!(op, ArithOp::Add | ArithOp::Sub) => {
            Ok(Col::Date(if op == ArithOp::Add {
                zip_map(n, x, |d| *d, y, id, |d, k| d + k as i32)
            } else {
                zip_map(n, x, |d| *d, y, id, |d, k| d - k as i32)
            }))
        }
        // Everything else widens to floats.
        (View::F64(x), View::F64(y)) => Ok(float_arith(op, n, x, |v| *v, y, |v| *v)),
        (View::I64(x), View::F64(y)) => Ok(float_arith(op, n, x, |&v| v as f64, y, |v| *v)),
        (View::F64(x), View::I64(y)) => Ok(float_arith(op, n, x, |v| *v, y, |&v| v as f64)),
        (View::I64(x), View::I64(y)) => Ok(float_arith(op, n, x, |&v| v as f64, y, |&v| v as f64)),
        (a, b) => {
            let bad = if matches!(a, View::I64(_) | View::F64(_)) {
                b
            } else {
                a
            };
            Err(IqError::Invalid(format!(
                "arithmetic on {:?} column",
                bad.data_type()
            )))
        }
    }
}

/// Float arithmetic kernel over both sides widened to `f64`.
fn float_arith<'a, A, B>(
    op: ArithOp,
    n: usize,
    a: Arg<'a, A>,
    fa: impl Fn(&'a A) -> f64,
    b: Arg<'a, B>,
    fb: impl Fn(&'a B) -> f64,
) -> Col {
    Col::F64(match op {
        ArithOp::Add => zip_map(n, a, fa, b, fb, |p, q| p + q),
        ArithOp::Sub => zip_map(n, a, fa, b, fb, |p, q| p - q),
        ArithOp::Mul => zip_map(n, a, fa, b, fb, |p, q| p * q),
        ArithOp::Div => zip_map(n, a, fa, b, fb, |p, q| p / q),
        ArithOp::Mod => zip_map(n, a, fa, b, fb, |p, q| p % q),
    })
}

/// SQL LIKE matcher: `%` matches any run, `_` one character. Iterative
/// two-pointer algorithm with backtracking to the last `%`.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s = s.as_bytes();
    let p = pattern.as_bytes();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_s) = (None::<usize>, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == b'_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == b'%' {
            star = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse_date;

    fn chunk() -> (Chunk, BTreeMap<usize, usize>) {
        let c = Chunk::new(vec![
            Col::I64(vec![1, 2, 3, 4]),
            Col::F64(vec![10.0, 20.0, 30.0, 40.0]),
            Col::Str(vec![
                "AIR".into(),
                "RAIL".into(),
                "AIR REG".into(),
                "SHIP".into(),
            ]),
            Col::Date(vec![
                parse_date("1994-01-01").unwrap(),
                parse_date("1994-06-01").unwrap(),
                parse_date("1995-01-01").unwrap(),
                parse_date("1995-06-01").unwrap(),
            ]),
        ]);
        let remap = (0..4).map(|i| (i, i)).collect();
        (c, remap)
    }

    #[test]
    fn comparisons_and_boolean_algebra() {
        let (c, m) = chunk();
        let e = Expr::and(
            Expr::gt(Expr::col(0), Expr::lit_i64(1)),
            Expr::lt(Expr::col(1), Expr::lit_f64(40.0)),
        );
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![false, true, true, false]);
        let e = Expr::or(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::eq(Expr::col(2), Expr::lit_str("SHIP")),
        );
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![true, false, false, true]);
        let e = Expr::not(Expr::le(Expr::col(0), Expr::lit_i64(2)));
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![false, false, true, true]);
    }

    #[test]
    fn numeric_promotion_in_comparisons() {
        let (c, m) = chunk();
        // i64 column vs float literal.
        let e = Expr::ge(Expr::col(0), Expr::lit_f64(2.5));
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![false, false, true, true]);
    }

    #[test]
    fn date_comparisons_and_ranges() {
        let (c, m) = chunk();
        let e = Expr::and(
            Expr::ge(
                Expr::col(3),
                Expr::lit_date(parse_date("1994-01-01").unwrap()),
            ),
            Expr::lt(
                Expr::col(3),
                Expr::lit_date(parse_date("1995-01-01").unwrap()),
            ),
        );
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![true, true, false, false]);
    }

    #[test]
    fn arithmetic_and_case() {
        let (c, m) = chunk();
        // price * (1 - 0.1)
        let e = Expr::mul(
            Expr::col(1),
            Expr::sub(Expr::lit_f64(1.0), Expr::lit_f64(0.1)),
        );
        let out = e.eval(&c, &m).unwrap();
        assert!((out.f64s()[1] - 18.0).abs() < 1e-9);
        // CASE WHEN k > 2 THEN price ELSE 0
        let e = Expr::case(
            Expr::gt(Expr::col(0), Expr::lit_i64(2)),
            Expr::col(1),
            Expr::lit_f64(0.0),
        );
        assert_eq!(e.eval(&c, &m).unwrap().f64s(), &[0.0, 0.0, 30.0, 40.0]);
    }

    #[test]
    fn literal_kernels_equal_broadcast_columns() {
        // Column-vs-literal (either side) must equal the same literal
        // broadcast into a column, bit for bit: NaN, signed zeros and
        // integer-to-float promotion included.
        let floats = vec![1.5, -0.0, 0.0, f64::NAN, -3.25, f64::INFINITY, 1e300];
        let n = floats.len();
        let lits = [
            Value::F64(0.0),
            Value::F64(-0.0),
            Value::F64(f64::NAN),
            Value::F64(1.5),
            Value::I64(-3),
        ];
        for lit in &lits {
            let mut cols = vec![
                Col::F64(floats.clone()),
                Col::I64((0..n as i64).map(|i| i - 3).collect()),
            ];
            cols.push(broadcast(lit, n));
            let c = Chunk::new(cols);
            let m: BTreeMap<usize, usize> = (0..3).map(|i| (i, i)).collect();
            for data in [0usize, 1] {
                let d = || Expr::col(data);
                let l = || Expr::Lit(lit.clone());
                let bcast = || Expr::col(2);
                for op in [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ] {
                    let cmp = |a: Expr, b: Expr| Expr::Cmp(op, a.into(), b.into());
                    let want = cmp(d(), bcast()).eval(&c, &m).unwrap();
                    assert_eq!(cmp(d(), l()).eval(&c, &m).unwrap(), want);
                    let want = cmp(bcast(), d()).eval(&c, &m).unwrap();
                    assert_eq!(cmp(l(), d()).eval(&c, &m).unwrap(), want);
                }
                for op in [
                    ArithOp::Add,
                    ArithOp::Sub,
                    ArithOp::Mul,
                    ArithOp::Div,
                    ArithOp::Mod,
                ] {
                    let ar = |a: Expr, b: Expr| Expr::Arith(op, a.into(), b.into());
                    let bits = |col: Col| match col {
                        Col::F64(v) => v.iter().map(|x| x.to_bits() as i64).collect(),
                        Col::I64(v) => v,
                        other => panic!("arith produced {other:?}"),
                    };
                    for (x, y, xl, yl) in [(d(), bcast(), d(), l()), (bcast(), d(), l(), d())] {
                        let want = ar(x, y).eval(&c, &m);
                        let got = ar(xl, yl).eval(&c, &m);
                        match (want, got) {
                            (Ok(w), Ok(g)) => assert_eq!(bits(w), bits(g), "{op:?} {lit:?}"),
                            (Err(_), Err(_)) => {}
                            other => panic!("{op:?} {lit:?}: {other:?}"),
                        }
                    }
                }
            }
        }
        // Strings against a literal compare by content, either side.
        let (c, m) = chunk();
        let e = Expr::lt(Expr::lit_str("B"), Expr::col(2));
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![false, true, false, true]);
        let e = Expr::ge(Expr::col(2), Expr::lit_str("AIR REG"));
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![false, true, true, true]);
        // A bare literal still evaluates to a broadcast column.
        assert_eq!(Expr::lit_i64(7).eval(&c, &m).unwrap(), Col::I64(vec![7; 4]));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("AIR REG", "AIR%"));
        assert!(like_match("AIR REG", "%REG"));
        assert!(like_match("forest green metal", "%green%"));
        assert!(!like_match("forest blue metal", "%green%"));
        assert!(like_match(
            "special packages requests",
            "%special%requests%"
        ));
        assert!(!like_match("special packages", "%special%requests%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("MEDIUM POLISHED", "MEDIUM POLISHED%"));
    }

    #[test]
    fn in_list_substr_year() {
        let (c, m) = chunk();
        let e = Expr::in_list(
            Expr::col(2),
            vec![Value::Str("AIR".into()), Value::Str("SHIP".into())],
        );
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![true, false, false, true]);
        let e = Expr::substr(Expr::col(2), 1, 3);
        assert_eq!(e.eval(&c, &m).unwrap().strs()[2].as_ref(), "AIR");
        let e = Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(1995));
        assert_eq!(e.eval_mask(&c, &m).unwrap(), vec![false, false, true, true]);
    }

    #[test]
    fn prune_check_extraction() {
        let e = Expr::and(
            Expr::lt(Expr::col(3), Expr::lit_date(100)),
            Expr::and(
                Expr::ge(Expr::lit_i64(5), Expr::col(0)), // flipped: col0 <= 5
                Expr::like(Expr::col(2), "%x%"),          // no literal prefix
            ),
        );
        let checks = e.prune_checks();
        assert_eq!(checks.len(), 2);
        assert_eq!(checks[0], PruneCheck::Cmp(3, PruneOp::Lt, Value::Date(100)));
        assert_eq!(checks[1], PruneCheck::Cmp(0, PruneOp::Le, Value::I64(5)));
        // OR at top level: nothing prunable.
        let e = Expr::or(Expr::lt(Expr::col(0), Expr::lit_i64(1)), Expr::lit_i64(1));
        assert!(Expr::prune_checks(&e).is_empty());
    }

    #[test]
    fn prune_checks_cover_ne_in_between_like_year() {
        // <> extracts a Ne check (either side).
        let checks = Expr::ne(Expr::col(0), Expr::lit_i64(9)).prune_checks();
        assert_eq!(checks, vec![PruneCheck::Ne(0, Value::I64(9))]);
        let checks = Expr::ne(Expr::lit_i64(9), Expr::col(0)).prune_checks();
        assert_eq!(checks, vec![PruneCheck::Ne(0, Value::I64(9))]);

        // IN lists carry every element.
        let vals = vec![Value::Str("AIR".into()), Value::Str("SHIP".into())];
        let checks = Expr::in_list(Expr::col(2), vals.clone()).prune_checks();
        assert_eq!(checks, vec![PruneCheck::In(2, vals)]);

        // BETWEEN desugars to both bounds.
        let checks =
            Expr::between(Expr::col(0), Expr::lit_i64(10), Expr::lit_i64(20)).prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(0, PruneOp::Ge, Value::I64(10)),
                PruneCheck::Cmp(0, PruneOp::Le, Value::I64(20)),
            ]
        );

        // Prefix LIKE folds to [prefix, successor).
        let checks = Expr::like(Expr::col(2), "MEDIUM%").prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(2, PruneOp::Ge, Value::Str("MEDIUM".into())),
                PruneCheck::Cmp(2, PruneOp::Lt, Value::Str("MEDIUN".into())),
            ]
        );
        // `_` ends the literal prefix too.
        let checks = Expr::like(Expr::col(2), "AB_X%").prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(2, PruneOp::Ge, Value::Str("AB".into())),
                PruneCheck::Cmp(2, PruneOp::Lt, Value::Str("AC".into())),
            ]
        );

        // EXTRACT(YEAR) folds to day-number ranges.
        let jan1 = parse_date("1995-01-01").unwrap();
        let dec31 = parse_date("1995-12-31").unwrap();
        let checks = Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(1995)).prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(3, PruneOp::Ge, Value::Date(jan1)),
                PruneCheck::Cmp(3, PruneOp::Le, Value::Date(dec31)),
            ]
        );
        let checks = Expr::gt(Expr::year(Expr::col(3)), Expr::lit_i64(1995)).prune_checks();
        assert_eq!(
            checks,
            vec![PruneCheck::Cmp(
                3,
                PruneOp::Ge,
                Value::Date(parse_date("1996-01-01").unwrap())
            )]
        );
        let checks = Expr::ne(Expr::year(Expr::col(3)), Expr::lit_i64(1995)).prune_checks();
        assert_eq!(
            checks,
            vec![PruneCheck::Outside(3, jan1 as i64, dec31 as i64)]
        );
        // Flipped literal side: `1995 <= year(d)` means `year(d) >= 1995`.
        let checks = Expr::le(Expr::lit_i64(1995), Expr::year(Expr::col(3))).prune_checks();
        assert_eq!(
            checks,
            vec![PruneCheck::Cmp(3, PruneOp::Ge, Value::Date(jan1))]
        );
        // Out-of-calendar years fold to nothing (conservative).
        assert!(Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(99_999))
            .prune_checks()
            .is_empty());
    }

    #[test]
    fn lexical_successor_carries() {
        assert_eq!(lexical_successor("MEDIUM").as_deref(), Some("MEDIUN"));
        assert_eq!(lexical_successor("az").as_deref(), Some("a{"));
        let top = String::from(char::MAX);
        assert_eq!(lexical_successor(&format!("a{top}")).as_deref(), Some("b"));
        assert_eq!(lexical_successor(&top), None);
    }

    #[test]
    fn dict_eval_columns_require_equality_only_use() {
        let is_str = |c: usize| c == 2 || c == 5;
        // Pure equality/IN use: safe.
        let e = Expr::and(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::in_list(
                Expr::col(5),
                vec![Value::Str("A".into()), Value::Str("B".into())],
            ),
        );
        assert_eq!(e.dict_eval_columns(&is_str), vec![2, 5]);
        // A second, order-dependent use disqualifies the column.
        let e = Expr::and(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::like(Expr::col(2), "A%"),
        );
        assert!(e.dict_eval_columns(&is_str).is_empty());
        // Non-string columns never qualify.
        let e = Expr::eq(Expr::col(0), Expr::lit_str("AIR"));
        assert!(e.dict_eval_columns(&|_| false).is_empty());
        // Comparison against another column disqualifies both sides.
        let e = Expr::eq(Expr::col(2), Expr::col(5));
        assert!(e.dict_eval_columns(&is_str).is_empty());
    }

    #[test]
    fn dict_rewrite_matches_string_semantics() {
        // Codes: AIR=0, RAIL=1; "SHIP" missing.
        let lookup = |_c: usize, s: &str| match s {
            "AIR" => Some(0u32),
            "RAIL" => Some(1),
            _ => None,
        };
        let cols = [2usize];
        let e = Expr::eq(Expr::col(2), Expr::lit_str("AIR")).rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::eq(Expr::col(2), Expr::lit_i64(0)));
        // Missing literal becomes the never-matching sentinel.
        let e = Expr::ne(Expr::col(2), Expr::lit_str("SHIP")).rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::ne(Expr::col(2), Expr::lit_i64(-1)));
        // IN drops misses; all-miss keeps an always-false shape.
        let e = Expr::in_list(
            Expr::col(2),
            vec![Value::Str("RAIL".into()), Value::Str("SHIP".into())],
        )
        .rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::in_list(Expr::col(2), vec![Value::I64(1)]));
        let e = Expr::in_list(Expr::col(2), vec![Value::Str("SHIP".into())])
            .rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::eq(Expr::col(2), Expr::lit_i64(-1)));

        // Evaluate both domains over the same logical data.
        let codes = Chunk::new(vec![Col::I64(vec![0, 1, 0])]);
        let remap: BTreeMap<usize, usize> = [(2usize, 0usize)].into_iter().collect();
        let e = Expr::or(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::eq(Expr::col(2), Expr::lit_str("SHIP")),
        )
        .rewrite_for_dict(&cols, &lookup);
        assert_eq!(
            e.eval_mask(&codes, &remap).unwrap(),
            vec![true, false, true]
        );
    }

    #[test]
    fn columns_collected() {
        let e = Expr::and(
            Expr::gt(Expr::col(3), Expr::col(1)),
            Expr::like(Expr::col(2), "%"),
        );
        assert_eq!(e.columns(), vec![1, 2, 3]);
    }

    #[test]
    fn errors_on_type_confusion() {
        let (c, m) = chunk();
        assert!(Expr::eq(Expr::col(0), Expr::lit_str("x"))
            .eval(&c, &m)
            .is_err());
        assert!(Expr::col(9).eval(&c, &m).is_err());
        assert!(Expr::lit_i64(1).eval_mask(&c, &m).is_err());
    }
}
