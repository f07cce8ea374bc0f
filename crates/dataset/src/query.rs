//! A mini-SQL query engine over in-memory [`Table`]s.
//!
//! This is the substrate behind the paper's *Connector* optimizer module: the
//! (simulated) LLM is only allowed to run user-approved `SELECT` statements
//! locally and sees just the result, never the raw table.
//!
//! Supported grammar:
//!
//! ```text
//! SELECT <proj> FROM <ident>
//!   [WHERE <pred>]
//!   [GROUP BY col {, col}]
//!   [ORDER BY col [ASC|DESC] {, col [ASC|DESC]}]
//!   [LIMIT n]
//!
//! proj  := '*' | item {, item}
//! item  := col | agg '(' (col|'*') ')'
//! agg   := COUNT | SUM | AVG | MIN | MAX
//! pred  := disjunctions of conjunctions of comparisons, NOT, parentheses,
//!          col (=|!=|<>|<|<=|>|>=) literal, col LIKE 'pat%', col IS [NOT] NULL
//! ```

use crate::error::DataError;
use crate::record::Record;
use crate::schema::{ColumnType, Schema};
use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// A named collection of tables queries can reference.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table under its own name (lowercased).
    pub fn register(&mut self, table: Table) {
        self.tables.insert(table.name().to_ascii_lowercase(), table);
    }

    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Parse and execute a query against this catalog.
    pub fn execute(&self, sql: &str) -> Result<Table, DataError> {
        let query = Query::parse(sql)?;
        let table = self
            .get(&query.from)
            .ok_or_else(|| DataError::QueryExec(format!("unknown table `{}`", query.from)))?;
        query.run(table)
    }
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Aggregate {
    fn name(self) -> &'static str {
        match self {
            Aggregate::Count => "count",
            Aggregate::Sum => "sum",
            Aggregate::Avg => "avg",
            Aggregate::Min => "min",
            Aggregate::Max => "max",
        }
    }
}

/// One item in the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`
    Star,
    /// Bare column reference.
    Column(String),
    /// `agg(col)` or `COUNT(*)` (column = None).
    Agg(Aggregate, Option<String>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Boolean predicate tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    Cmp { column: String, op: CmpOp, literal: Value },
    Like { column: String, pattern: String },
    IsNull { column: String, negated: bool },
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub projections: Vec<Projection>,
    pub from: String,
    pub predicate: Option<Predicate>,
    pub group_by: Vec<String>,
    pub order_by: Vec<(String, bool)>, // (column, ascending)
    pub limit: Option<usize>,
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Star,
    Comma,
    LParen,
    RParen,
    Op(CmpOp),
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> DataError {
        DataError::QueryParse { position: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn next(&mut self) -> Result<Tok, DataError> {
        self.skip_ws();
        if self.pos >= self.bytes.len() {
            return Ok(Tok::Eof);
        }
        let b = self.bytes[self.pos];
        match b {
            b'*' => {
                self.pos += 1;
                Ok(Tok::Star)
            }
            b',' => {
                self.pos += 1;
                Ok(Tok::Comma)
            }
            b'(' => {
                self.pos += 1;
                Ok(Tok::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Tok::RParen)
            }
            b'=' => {
                self.pos += 1;
                Ok(Tok::Op(CmpOp::Eq))
            }
            b'!' => {
                if self.bytes.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Tok::Op(CmpOp::Ne))
                } else {
                    Err(self.error("expected `!=`"))
                }
            }
            b'<' => {
                self.pos += 1;
                match self.bytes.get(self.pos) {
                    Some(b'=') => {
                        self.pos += 1;
                        Ok(Tok::Op(CmpOp::Le))
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        Ok(Tok::Op(CmpOp::Ne))
                    }
                    _ => Ok(Tok::Op(CmpOp::Lt)),
                }
            }
            b'>' => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Ok(Tok::Op(CmpOp::Ge))
                } else {
                    Ok(Tok::Op(CmpOp::Gt))
                }
            }
            b'\'' => {
                self.pos += 1;
                let mut out = String::new();
                loop {
                    match self.bytes.get(self.pos) {
                        None => return Err(self.error("unterminated string literal")),
                        Some(b'\'') => {
                            if self.bytes.get(self.pos + 1) == Some(&b'\'') {
                                out.push('\'');
                                self.pos += 2;
                            } else {
                                self.pos += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            // Advance one UTF-8 char.
                            let rest = &self.src[self.pos..];
                            let ch = rest.chars().next().unwrap();
                            out.push(ch);
                            self.pos += ch.len_utf8();
                        }
                    }
                }
                Ok(Tok::Str(out))
            }
            b'0'..=b'9' | b'-' | b'.' => {
                let start = self.pos;
                self.pos += 1;
                while self.pos < self.bytes.len()
                    && (self.bytes[self.pos].is_ascii_digit()
                        || self.bytes[self.pos] == b'.'
                        || self.bytes[self.pos] == b'e'
                        || self.bytes[self.pos] == b'E')
                {
                    self.pos += 1;
                }
                let text = &self.src[start..self.pos];
                if let Ok(i) = text.parse::<i64>() {
                    Ok(Tok::Int(i))
                } else if let Ok(f) = text.parse::<f64>() {
                    Ok(Tok::Float(f))
                } else {
                    Err(self.error(format!("bad numeric literal `{text}`")))
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && (self.bytes[self.pos].is_ascii_alphanumeric()
                        || self.bytes[self.pos] == b'_'
                        || self.bytes[self.pos] == b'.')
                {
                    self.pos += 1;
                }
                Ok(Tok::Ident(self.src[start..self.pos].to_string()))
            }
            other => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    lexer: Lexer<'a>,
    current: Tok,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, DataError> {
        let mut lexer = Lexer::new(src);
        let current = lexer.next()?;
        Ok(Parser { lexer, current })
    }

    fn bump(&mut self) -> Result<Tok, DataError> {
        let next = self.lexer.next()?;
        Ok(std::mem::replace(&mut self.current, next))
    }

    fn error(&self, message: impl Into<String>) -> DataError {
        DataError::QueryParse { position: self.lexer.pos, message: message.into() }
    }

    /// Is the current token the given (case-insensitive) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.current, Tok::Ident(id) if id.eq_ignore_ascii_case(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DataError> {
        if self.at_kw(kw) {
            self.bump()?;
            Ok(())
        } else {
            Err(self.error(format!("expected keyword `{kw}`, found {:?}", self.current)))
        }
    }

    fn expect_ident(&mut self) -> Result<String, DataError> {
        match self.bump()? {
            Tok::Ident(id) => Ok(id),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_query(&mut self) -> Result<Query, DataError> {
        self.expect_kw("select")?;
        let projections = self.parse_projections()?;
        self.expect_kw("from")?;
        let from = self.expect_ident()?;
        let predicate = if self.at_kw("where") {
            self.bump()?;
            Some(self.parse_or()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.at_kw("group") {
            self.bump()?;
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expect_ident()?);
                if self.current == Tok::Comma {
                    self.bump()?;
                } else {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.at_kw("order") {
            self.bump()?;
            self.expect_kw("by")?;
            loop {
                let col = self.expect_ident()?;
                let asc = if self.at_kw("asc") {
                    self.bump()?;
                    true
                } else if self.at_kw("desc") {
                    self.bump()?;
                    false
                } else {
                    true
                };
                order_by.push((col, asc));
                if self.current == Tok::Comma {
                    self.bump()?;
                } else {
                    break;
                }
            }
        }
        let limit = if self.at_kw("limit") {
            self.bump()?;
            match self.bump()? {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(self.error(format!("LIMIT expects an integer, found {other:?}")))
                }
            }
        } else {
            None
        };
        if self.current != Tok::Eof {
            return Err(self.error(format!("trailing tokens after query: {:?}", self.current)));
        }
        Ok(Query { projections, from, predicate, group_by, order_by, limit })
    }

    fn parse_projections(&mut self) -> Result<Vec<Projection>, DataError> {
        let mut out = Vec::new();
        loop {
            match self.bump()? {
                Tok::Star => out.push(Projection::Star),
                Tok::Ident(id) => {
                    let agg = match id.to_ascii_lowercase().as_str() {
                        "count" => Some(Aggregate::Count),
                        "sum" => Some(Aggregate::Sum),
                        "avg" => Some(Aggregate::Avg),
                        "min" => Some(Aggregate::Min),
                        "max" => Some(Aggregate::Max),
                        _ => None,
                    };
                    if let (Some(agg), &Tok::LParen) = (agg, &self.current) {
                        self.bump()?; // (
                        let arg = match self.bump()? {
                            Tok::Star => None,
                            Tok::Ident(col) => Some(col),
                            other => {
                                return Err(self.error(format!(
                                    "aggregate expects column or *, found {other:?}"
                                )))
                            }
                        };
                        if self.bump()? != Tok::RParen {
                            return Err(self.error("expected `)` after aggregate argument"));
                        }
                        out.push(Projection::Agg(agg, arg));
                    } else {
                        out.push(Projection::Column(id));
                    }
                }
                other => return Err(self.error(format!("bad projection item {other:?}"))),
            }
            if self.current == Tok::Comma {
                self.bump()?;
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn parse_or(&mut self) -> Result<Predicate, DataError> {
        let mut left = self.parse_and()?;
        while self.at_kw("or") {
            self.bump()?;
            let right = self.parse_and()?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Predicate, DataError> {
        let mut left = self.parse_atom()?;
        while self.at_kw("and") {
            self.bump()?;
            let right = self.parse_atom()?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_atom(&mut self) -> Result<Predicate, DataError> {
        if self.at_kw("not") {
            self.bump()?;
            return Ok(Predicate::Not(Box::new(self.parse_atom()?)));
        }
        if self.current == Tok::LParen {
            self.bump()?;
            let inner = self.parse_or()?;
            if self.bump()? != Tok::RParen {
                return Err(self.error("expected `)`"));
            }
            return Ok(inner);
        }
        let column = self.expect_ident()?;
        if self.at_kw("is") {
            self.bump()?;
            let negated = if self.at_kw("not") {
                self.bump()?;
                true
            } else {
                false
            };
            self.expect_kw("null")?;
            return Ok(Predicate::IsNull { column, negated });
        }
        if self.at_kw("like") {
            self.bump()?;
            match self.bump()? {
                Tok::Str(pattern) => return Ok(Predicate::Like { column, pattern }),
                other => return Err(self.error(format!("LIKE expects a string, found {other:?}"))),
            }
        }
        let op = match self.bump()? {
            Tok::Op(op) => op,
            other => {
                return Err(self.error(format!("expected comparison operator, found {other:?}")))
            }
        };
        let literal = match self.bump()? {
            Tok::Str(s) => Value::Str(s),
            Tok::Int(i) => Value::Int(i),
            Tok::Float(f) => Value::Float(f),
            Tok::Ident(id) if id.eq_ignore_ascii_case("true") => Value::Bool(true),
            Tok::Ident(id) if id.eq_ignore_ascii_case("false") => Value::Bool(false),
            Tok::Ident(id) if id.eq_ignore_ascii_case("null") => Value::Null,
            other => return Err(self.error(format!("expected literal, found {other:?}"))),
        };
        Ok(Predicate::Cmp { column, op, literal })
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

impl Query {
    /// Parse a SELECT statement.
    pub fn parse(sql: &str) -> Result<Query, DataError> {
        Parser::new(sql)?.parse_query()
    }

    /// Execute against a single table.
    pub fn run(&self, table: &Table) -> Result<Table, DataError> {
        // 1. Filter.
        let schema = table.schema();
        let mut rows: Vec<&Record> = Vec::new();
        for row in table.rows() {
            let keep = match &self.predicate {
                Some(p) => eval_predicate(p, schema, row)?,
                None => true,
            };
            if keep {
                rows.push(row);
            }
        }

        let has_agg = self.projections.iter().any(|p| matches!(p, Projection::Agg(..)));

        let mut result = if has_agg || !self.group_by.is_empty() {
            self.run_aggregate(schema, &rows)?
        } else {
            self.run_plain(schema, rows)?
        };

        // ORDER BY (on the *output* schema; falls back to input columns being
        // projected through).
        if !self.order_by.is_empty() {
            let out_schema = result.schema().clone();
            let keys: Vec<(usize, bool)> = self
                .order_by
                .iter()
                .map(|(col, asc)| out_schema.require(col).map(|i| (i, *asc)))
                .collect::<Result<_, _>>()?;
            let mut rows = result.into_rows();
            rows.sort_by(|a, b| {
                for &(idx, asc) in &keys {
                    let ord = a[idx].total_cmp(&b[idx]);
                    let ord = if asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            result = Table::with_rows("result", out_schema, rows)?;
        }

        // LIMIT.
        if let Some(n) = self.limit {
            result = result.head(n);
        }
        result.set_name("result");
        Ok(result)
    }

    fn run_plain(&self, schema: &Schema, rows: Vec<&Record>) -> Result<Table, DataError> {
        // Expand projections to column indices.
        let mut indices = Vec::new();
        for proj in &self.projections {
            match proj {
                Projection::Star => indices.extend(0..schema.len()),
                Projection::Column(name) => indices.push(schema.require(name)?),
                Projection::Agg(..) => unreachable!("aggregates handled elsewhere"),
            }
        }
        let out_schema = schema.project(&indices);
        let out_rows = rows
            .into_iter()
            .map(|r| Record::new(indices.iter().map(|&i| r[i].clone()).collect()))
            .collect();
        Table::with_rows("result", out_schema, out_rows)
    }

    fn run_aggregate(&self, schema: &Schema, rows: &[&Record]) -> Result<Table, DataError> {
        let group_indices: Vec<usize> =
            self.group_by.iter().map(|c| schema.require(c)).collect::<Result<_, _>>()?;

        // Validate that non-aggregate projections are group-by columns.
        for proj in &self.projections {
            if let Projection::Column(name) = proj {
                let idx = schema.require(name)?;
                if !group_indices.contains(&idx) {
                    return Err(DataError::QueryExec(format!(
                        "column `{name}` must appear in GROUP BY or an aggregate"
                    )));
                }
            }
            if matches!(proj, Projection::Star) {
                return Err(DataError::QueryExec("`*` cannot be combined with aggregates".into()));
            }
        }

        // Group rows. Key = rendered group values (stable + hashable).
        let mut groups: BTreeMap<Vec<String>, Vec<&Record>> = BTreeMap::new();
        for row in rows {
            let key: Vec<String> = group_indices
                .iter()
                .map(|&i| format!("{}|{}", row[i].type_name(), row[i]))
                .collect();
            groups.entry(key).or_default().push(row);
        }
        if groups.is_empty() && group_indices.is_empty() {
            groups.insert(Vec::new(), Vec::new());
        }

        // Output schema.
        let mut out_schema = Schema::new(vec![]);
        for proj in &self.projections {
            match proj {
                Projection::Column(name) => {
                    out_schema.push(name.clone(), ColumnType::Any);
                }
                Projection::Agg(agg, col) => {
                    let label = match col {
                        Some(c) => format!("{}({c})", agg.name()),
                        None => format!("{}(*)", agg.name()),
                    };
                    out_schema.push(label, ColumnType::Any);
                }
                Projection::Star => unreachable!(),
            }
        }

        let mut out_rows = Vec::with_capacity(groups.len());
        for group_rows in groups.values() {
            let mut record = Record::default();
            for proj in &self.projections {
                match proj {
                    Projection::Column(name) => {
                        let idx = schema.require(name)?;
                        let v = group_rows.first().map(|r| r[idx].clone()).unwrap_or(Value::Null);
                        record.push(v);
                    }
                    Projection::Agg(agg, col) => {
                        record.push(eval_aggregate(*agg, col.as_deref(), schema, group_rows)?);
                    }
                    Projection::Star => unreachable!(),
                }
            }
            out_rows.push(record);
        }
        Table::with_rows("result", out_schema, out_rows)
    }
}

fn eval_aggregate(
    agg: Aggregate,
    column: Option<&str>,
    schema: &Schema,
    rows: &[&Record],
) -> Result<Value, DataError> {
    let idx = match column {
        Some(c) => Some(schema.require(c)?),
        None => None,
    };
    let non_null = || -> Vec<&Value> {
        rows.iter().filter_map(|r| idx.map(|i| &r[i])).filter(|v| !v.is_null()).collect()
    };
    Ok(match agg {
        Aggregate::Count => match idx {
            None => Value::Int(rows.len() as i64),
            Some(_) => Value::Int(non_null().len() as i64),
        },
        Aggregate::Sum => {
            let vals = non_null();
            let sum: f64 = vals.iter().filter_map(|v| v.as_f64()).sum();
            if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(sum as i64)
            } else {
                Value::Float(sum)
            }
        }
        Aggregate::Avg => {
            let vals: Vec<f64> = non_null().iter().filter_map(|v| v.as_f64()).collect();
            if vals.is_empty() {
                Value::Null
            } else {
                Value::Float(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        }
        Aggregate::Min => {
            non_null().into_iter().min_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(Value::Null)
        }
        Aggregate::Max => {
            non_null().into_iter().max_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(Value::Null)
        }
    })
}

fn eval_predicate(pred: &Predicate, schema: &Schema, row: &Record) -> Result<bool, DataError> {
    Ok(match pred {
        Predicate::Cmp { column, op, literal } => {
            let idx = schema.require(column)?;
            let cell = &row[idx];
            if cell.is_null() || literal.is_null() {
                return Ok(false);
            }
            // Ordered comparisons only apply between same-kind values (both
            // numeric or both strings); cross-kind comparisons are false
            // rather than using the arbitrary type-rank order.
            let comparable = matches!(
                (cell, literal),
                (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
                    | (Value::Str(_), Value::Str(_))
            );
            match op {
                CmpOp::Eq => cell.sql_eq(literal),
                CmpOp::Ne => !cell.sql_eq(literal),
                CmpOp::Lt => comparable && cell.total_cmp(literal) == std::cmp::Ordering::Less,
                CmpOp::Le => comparable && cell.total_cmp(literal) != std::cmp::Ordering::Greater,
                CmpOp::Gt => comparable && cell.total_cmp(literal) == std::cmp::Ordering::Greater,
                CmpOp::Ge => comparable && cell.total_cmp(literal) != std::cmp::Ordering::Less,
            }
        }
        Predicate::Like { column, pattern } => {
            let idx = schema.require(column)?;
            match row[idx].as_str() {
                Some(s) => like_match(pattern, s),
                None => false,
            }
        }
        Predicate::IsNull { column, negated } => {
            let idx = schema.require(column)?;
            row[idx].is_null() != *negated
        }
        Predicate::And(a, b) => eval_predicate(a, schema, row)? && eval_predicate(b, schema, row)?,
        Predicate::Or(a, b) => eval_predicate(a, schema, row)? || eval_predicate(b, schema, row)?,
        Predicate::Not(inner) => !eval_predicate(inner, schema, row)?,
    })
}

/// Case-insensitive SQL LIKE with `%` (any run) and `_` (single char).
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Try consuming 0..=len chars.
                (0..=t.len()).any(|k| inner(&p[1..], &t[k..]))
            }
            Some('_') => !t.is_empty() && inner(&p[1..], &t[1..]),
            Some(&c) => match t.first() {
                Some(&tc) => c == tc && inner(&p[1..], &t[1..]),
                None => false,
            },
        }
    }
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let t: Vec<char> = text.to_lowercase().chars().collect();
    inner(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv;

    fn fixture() -> Catalog {
        let table = csv::read_str(
            "products",
            "id,name,manufacturer,price\n\
             1,PlayStation 2 Memory Card,Sony,9.99\n\
             2,Xbox Controller,Microsoft,29.0\n\
             3,Switch Dock,Nintendo,59.5\n\
             4,USB Cable,,3.5\n\
             5,DualShock 4,Sony,44.0\n",
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register(table);
        catalog
    }

    #[test]
    fn select_star() {
        let result = fixture().execute("SELECT * FROM products").unwrap();
        assert_eq!(result.len(), 5);
        assert_eq!(result.schema().len(), 4);
    }

    #[test]
    fn projection_and_where() {
        let result =
            fixture().execute("SELECT name FROM products WHERE manufacturer = 'Sony'").unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.schema().len(), 1);
        assert_eq!(result.cell(0, "name").unwrap(), &Value::from("PlayStation 2 Memory Card"));
    }

    #[test]
    fn numeric_comparisons() {
        let c = fixture();
        assert_eq!(c.execute("SELECT id FROM products WHERE price < 10").unwrap().len(), 2);
        assert_eq!(c.execute("SELECT id FROM products WHERE price >= 29.0").unwrap().len(), 3);
        assert_eq!(c.execute("SELECT id FROM products WHERE id != 1").unwrap().len(), 4);
    }

    #[test]
    fn and_or_not_parens() {
        let c = fixture();
        let r = c
            .execute(
                "SELECT id FROM products WHERE (manufacturer = 'Sony' OR manufacturer = 'Nintendo') AND price > 10",
            )
            .unwrap();
        assert_eq!(r.len(), 2); // Switch Dock + DualShock 4
                                // Two-valued logic: the NULL manufacturer fails the comparison, so NOT
                                // includes it (Microsoft, Nintendo, and the NULL row).
        let r = c.execute("SELECT id FROM products WHERE NOT manufacturer = 'Sony'").unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn null_semantics_in_not() {
        // `manufacturer = 'Sony'` is false for NULL, so NOT makes it true.
        // This matches our simplified 2-valued logic (documented).
        let c = fixture();
        let r = c.execute("SELECT id FROM products WHERE manufacturer IS NULL").unwrap();
        assert_eq!(r.len(), 1);
        let r = c.execute("SELECT id FROM products WHERE manufacturer IS NOT NULL").unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn like_patterns() {
        let c = fixture();
        let r = c.execute("SELECT id FROM products WHERE name LIKE '%card%'").unwrap();
        assert_eq!(r.len(), 1);
        let r = c.execute("SELECT id FROM products WHERE name LIKE 'x%'").unwrap();
        assert_eq!(r.len(), 1);
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
    }

    #[test]
    fn order_by_and_limit() {
        let c = fixture();
        let r = c.execute("SELECT name, price FROM products ORDER BY price DESC LIMIT 2").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, "name").unwrap(), &Value::from("Switch Dock"));
    }

    #[test]
    fn aggregates_global() {
        let c = fixture();
        let r = c
            .execute("SELECT count(*), avg(price), min(price), max(price), sum(id) FROM products")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "count(*)").unwrap(), &Value::Int(5));
        assert_eq!(r.cell(0, "min(price)").unwrap(), &Value::Float(3.5));
        assert_eq!(r.cell(0, "sum(id)").unwrap(), &Value::Int(15));
    }

    #[test]
    fn count_column_skips_nulls() {
        let c = fixture();
        let r = c.execute("SELECT count(manufacturer) FROM products").unwrap();
        assert_eq!(r.cell(0, "count(manufacturer)").unwrap(), &Value::Int(4));
    }

    #[test]
    fn group_by() {
        let c = fixture();
        let r = c
            .execute(
                "SELECT manufacturer, count(*) FROM products WHERE manufacturer IS NOT NULL GROUP BY manufacturer ORDER BY manufacturer",
            )
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.cell(2, "manufacturer").unwrap(), &Value::from("Sony"));
        assert_eq!(r.cell(2, "count(*)").unwrap(), &Value::Int(2));
    }

    #[test]
    fn group_by_rejects_non_grouped_column() {
        let c = fixture();
        let err = c.execute("SELECT name, count(*) FROM products GROUP BY manufacturer");
        assert!(err.is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        let c = fixture();
        assert!(matches!(c.execute("SELEKT * FROM products"), Err(DataError::QueryParse { .. })));
        assert!(c.execute("SELECT * FROM nope").is_err());
        assert!(c.execute("SELECT * FROM products WHERE").is_err());
        assert!(c.execute("SELECT * FROM products LIMIT x").is_err());
        assert!(c.execute("SELECT * FROM products extra").is_err());
    }

    #[test]
    fn string_literal_escaping() {
        let mut catalog = Catalog::new();
        let t = csv::read_str("t", "a\nit's\n").unwrap();
        catalog.register(t);
        let r = catalog.execute("SELECT a FROM t WHERE a = 'it''s'").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn empty_group_on_empty_filter() {
        let c = fixture();
        let r = c.execute("SELECT count(*) FROM products WHERE price > 1000").unwrap();
        assert_eq!(r.cell(0, "count(*)").unwrap(), &Value::Int(0));
    }
}
