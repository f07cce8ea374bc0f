//! Table schemas: named, typed columns.

use crate::error::DataError;
use std::fmt;

/// Declared type of a column. `Any` admits every value (including mixed types),
/// which is the common case for scraped / uncurated data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Any,
    Bool,
    Int,
    Float,
    Str,
}

impl ColumnType {
    /// Whether `value` conforms to this column type. `Null` conforms to all
    /// types; `Int` conforms to `Float` columns.
    pub fn admits(self, value: &crate::Value) -> bool {
        use crate::Value as V;
        matches!(
            (self, value),
            (_, V::Null)
                | (ColumnType::Any, _)
                | (ColumnType::Bool, V::Bool(_))
                | (ColumnType::Int, V::Int(_))
                | (ColumnType::Float, V::Float(_) | V::Int(_))
                | (ColumnType::Str, V::Str(_))
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ColumnType::Any => "any",
            ColumnType::Bool => "bool",
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Str => "str",
        };
        f.write_str(name)
    }
}

/// An ordered list of `(name, type)` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema where every column has type `Any`.
    pub fn of_names<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        Schema { columns: names.into_iter().map(|n| (n.into(), ColumnType::Any)).collect() }
    }

    /// Build a schema from explicit `(name, type)` pairs.
    pub fn new(columns: Vec<(String, ColumnType)>) -> Self {
        Schema { columns }
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name (case-sensitive first, then case-insensitive).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .or_else(|| self.columns.iter().position(|(n, _)| n.eq_ignore_ascii_case(name)))
    }

    /// Index of a column, or an [`DataError::UnknownColumn`] error.
    pub fn require(&self, name: &str) -> Result<usize, DataError> {
        self.index_of(name).ok_or_else(|| DataError::UnknownColumn(name.to_string()))
    }

    pub fn name(&self, index: usize) -> &str {
        &self.columns[index].0
    }

    pub fn column_type(&self, index: usize) -> ColumnType {
        self.columns[index].1
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, ColumnType)> {
        self.columns.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// A new schema containing only the columns at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema { columns: indices.iter().map(|&i| self.columns[i].clone()).collect() }
    }

    /// Append a column, returning its index.
    pub fn push(&mut self, name: impl Into<String>, ty: ColumnType) -> usize {
        self.columns.push((name.into(), ty));
        self.columns.len() - 1
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (name, ty)) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {ty}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn of_names_builds_any_columns() {
        let schema = Schema::of_names(["a", "b"]);
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.column_type(0), ColumnType::Any);
        assert_eq!(schema.index_of("b"), Some(1));
        assert_eq!(schema.index_of("missing"), None);
    }

    #[test]
    fn index_of_falls_back_to_case_insensitive() {
        let schema = Schema::of_names(["Name", "name_lower"]);
        assert_eq!(schema.index_of("Name"), Some(0));
        assert_eq!(schema.index_of("name"), Some(0));
        assert_eq!(schema.index_of("NAME_LOWER"), Some(1));
    }

    #[test]
    fn admits_covers_coercions() {
        assert!(ColumnType::Float.admits(&Value::Int(3)));
        assert!(ColumnType::Int.admits(&Value::Null));
        assert!(!ColumnType::Int.admits(&Value::Str("x".into())));
        assert!(ColumnType::Any.admits(&Value::Bool(true)));
    }

    #[test]
    fn project_keeps_order() {
        let schema = Schema::of_names(["a", "b", "c"]);
        let p = schema.project(&[2, 0]);
        assert_eq!(p.name(0), "c");
        assert_eq!(p.name(1), "a");
    }

    #[test]
    fn display_is_compact() {
        let schema = Schema::new(vec![("id".into(), ColumnType::Int)]);
        assert_eq!(schema.to_string(), "(id: int)");
    }
}
