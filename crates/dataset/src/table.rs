//! In-memory tables: a schema plus rows, with relational-style helpers.

use crate::error::DataError;
use crate::record::Record;
use crate::schema::{ColumnType, Schema};
use crate::value::Value;
use std::fmt;

/// A named, schema-ful, row-oriented table.
///
/// Tables are the unit of data that flows between pipeline operators in
/// `lingua-core`, and the object the mini-SQL engine queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Record>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table { name: name.into(), schema, rows: Vec::new() }
    }

    /// Create a table from pre-built rows, validating arity.
    pub fn with_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Record>,
    ) -> Result<Self, DataError> {
        let mut table = Table::new(name, schema);
        for row in rows {
            table.push(row)?;
        }
        Ok(table)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<Record> {
        self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row after checking its arity against the schema.
    pub fn push(&mut self, row: Record) -> Result<(), DataError> {
        if row.len() != self.schema.len() {
            return Err(DataError::ArityMismatch { expected: self.schema.len(), got: row.len() });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Cell accessor by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> Result<&Value, DataError> {
        let col = self.schema.require(column)?;
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .ok_or_else(|| DataError::QueryExec(format!("row {row} out of bounds")))
    }

    /// All values of one column, in row order.
    pub fn column(&self, column: &str) -> Result<Vec<Value>, DataError> {
        let col = self.schema.require(column)?;
        Ok(self.rows.iter().map(|r| r[col].clone()).collect())
    }

    /// Keep only the named columns (new table, rows copied).
    pub fn select_columns(&self, columns: &[&str]) -> Result<Table, DataError> {
        let indices: Vec<usize> =
            columns.iter().map(|c| self.schema.require(c)).collect::<Result<_, _>>()?;
        let schema = self.schema.project(&indices);
        let rows = self
            .rows
            .iter()
            .map(|r| Record::new(indices.iter().map(|&i| r[i].clone()).collect()))
            .collect();
        Ok(Table { name: self.name.clone(), schema, rows })
    }

    /// Keep only rows satisfying `predicate`.
    pub fn filter(&self, mut predicate: impl FnMut(&Record) -> bool) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows.iter().filter(|r| predicate(r)).cloned().collect(),
        }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows: self.rows.iter().take(n).cloned().collect(),
        }
    }

    /// Add a column computed from each row.
    pub fn add_column(
        &mut self,
        name: impl Into<String>,
        ty: ColumnType,
        mut f: impl FnMut(&Record) -> Value,
    ) {
        self.schema.push(name, ty);
        for row in &mut self.rows {
            let v = f(row);
            row.push(v);
        }
    }

    /// Pretty-print the first `limit` rows as an aligned text table
    /// (the rendering used by the demo binaries).
    pub fn preview(&self, limit: usize) -> String {
        let mut widths: Vec<usize> = self.schema.names().map(|n| n.chars().count()).collect();
        let shown: Vec<&Record> = self.rows.iter().take(limit).collect();
        for row in &shown {
            for (i, v) in row.iter().enumerate() {
                widths[i] = widths[i].max(v.render().chars().count().min(40));
            }
        }
        let mut out = String::new();
        let fmt_cell = |text: &str, width: usize| -> String {
            let truncated: String = if text.chars().count() > 40 {
                let mut t: String = text.chars().take(37).collect();
                t.push_str("...");
                t
            } else {
                text.to_string()
            };
            format!("{truncated:<width$}")
        };
        for (i, name) in self.schema.names().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(&fmt_cell(name, widths[i]));
        }
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in shown {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(&fmt_cell(&v.render(), widths[i]));
            }
            out.push('\n');
        }
        if self.rows.len() > limit {
            out.push_str(&format!("... ({} more rows)\n", self.rows.len() - limit));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{} rows]", self.name, self.schema, self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let schema = Schema::of_names(["id", "name", "price"]);
        Table::with_rows(
            "products",
            schema,
            vec![
                Record::new(vec![Value::Int(1), Value::from("memory card"), Value::Float(9.99)]),
                Record::new(vec![Value::Int(2), Value::from("controller"), Value::Float(29.0)]),
                Record::new(vec![Value::Int(3), Value::from("cable"), Value::Null]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_checks_arity() {
        let mut t = sample();
        let err = t.push(Record::new(vec![Value::Int(4)])).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { expected: 3, got: 1 }));
    }

    #[test]
    fn cell_access() {
        let t = sample();
        assert_eq!(t.cell(1, "name").unwrap(), &Value::from("controller"));
        assert!(t.cell(9, "name").is_err());
        assert!(t.cell(0, "nope").is_err());
    }

    #[test]
    fn select_columns_projects() {
        let t = sample();
        let p = t.select_columns(&["name"]).unwrap();
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.rows()[0][0], Value::from("memory card"));
    }

    #[test]
    fn filter_and_head() {
        let t = sample();
        let cheap = t.filter(|r| r[2].as_f64().map(|p| p < 10.0).unwrap_or(false));
        assert_eq!(cheap.len(), 1);
        assert_eq!(t.head(2).len(), 2);
    }

    #[test]
    fn add_column_and_null_counts() {
        let mut t = sample();
        t.add_column("has_price", ColumnType::Bool, |r| Value::Bool(!r[2].is_null()));
        assert_eq!(t.schema().len(), 4);
        assert_eq!(t.rows()[2][3], Value::Bool(false));
        let nulls: Vec<usize> =
            (0..4).map(|i| t.rows().iter().filter(|r| r[i].is_null()).count()).collect();
        assert_eq!(nulls, vec![0, 0, 1, 0]);
    }

    #[test]
    fn preview_truncates() {
        let t = sample();
        let p = t.preview(2);
        assert!(p.contains("memory card"));
        assert!(p.contains("1 more rows"));
    }
}
