//! [`Data`] — the value type that flows between pipeline modules.
//!
//! Modules are functions `Data -> Data` (§3.1: "a module is a function
//! f: X → Y"). `Data` unifies scalars, collections, whole tables, and single
//! records, with lossless round-trips to MangaScript values so LLMGC modules
//! can consume and produce it.

use crate::error::CoreError;
use lingua_dataset::{Record, Schema, Table, Value as CellValue};
use lingua_script::Value as ScriptValue;
use std::collections::BTreeMap;
use std::fmt;

/// A value flowing through a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    List(Vec<Data>),
    Map(BTreeMap<String, Data>),
    /// A whole table.
    Table(Table),
    /// One row paired with its schema (record-at-a-time processing).
    Record {
        schema: Schema,
        record: Record,
    },
}

impl Data {
    pub fn type_name(&self) -> &'static str {
        match self {
            Data::Null => "null",
            Data::Bool(_) => "bool",
            Data::Int(_) => "int",
            Data::Float(_) => "float",
            Data::Str(_) => "str",
            Data::List(_) => "list",
            Data::Map(_) => "map",
            Data::Table(_) => "table",
            Data::Record { .. } => "record",
        }
    }

    pub fn as_table(&self) -> Result<&Table, CoreError> {
        match self {
            Data::Table(t) => Ok(t),
            other => Err(CoreError::DataShape { expected: "table", got: other.type_name().into() }),
        }
    }

    pub(crate) fn into_table(self) -> Result<Table, CoreError> {
        match self {
            Data::Table(t) => Ok(t),
            other => Err(CoreError::DataShape { expected: "table", got: other.type_name().into() }),
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Data::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Data::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[Data]> {
        match self {
            Data::List(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&BTreeMap<String, Data>> {
        match self {
            Data::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Build a record value.
    pub fn record(schema: Schema, record: Record) -> Data {
        Data::Record { schema, record }
    }

    /// Build a map from `(key, value)` pairs.
    pub fn map<I: IntoIterator<Item = (String, Data)>>(pairs: I) -> Data {
        Data::Map(pairs.into_iter().collect())
    }

    /// Render the value as prompt-ready text (what LLM modules interpolate).
    pub fn render(&self) -> String {
        match self {
            Data::Null => String::new(),
            Data::Bool(b) => b.to_string(),
            Data::Int(i) => i.to_string(),
            Data::Float(f) => f.to_string(),
            Data::Str(s) => s.clone(),
            Data::List(items) => items.iter().map(|d| d.render()).collect::<Vec<_>>().join(", "),
            Data::Map(map) => map
                .iter()
                .map(|(k, v)| format!("{k}: {}", v.render()))
                .collect::<Vec<_>>()
                .join("; "),
            Data::Table(t) => format!("{t}"),
            Data::Record { schema, record } => record.describe(schema),
        }
    }

    /// Convert to a MangaScript value. Tables become lists of field maps;
    /// records become field maps.
    pub fn to_script(&self) -> ScriptValue {
        match self {
            Data::Null => ScriptValue::Null,
            Data::Bool(b) => ScriptValue::Bool(*b),
            Data::Int(i) => ScriptValue::Int(*i),
            Data::Float(f) => ScriptValue::Float(*f),
            Data::Str(s) => ScriptValue::from(s.as_str()),
            Data::List(items) => items.iter().map(Data::to_script).collect(),
            Data::Map(map) => ScriptValue::from(
                map.iter().map(|(k, v)| (k.clone(), v.to_script())).collect::<BTreeMap<_, _>>(),
            ),
            Data::Table(table) => {
                table.rows().iter().map(|row| record_to_script(table.schema(), row)).collect()
            }
            Data::Record { schema, record } => record_to_script(schema, record),
        }
    }

    /// Convert back from a MangaScript value.
    pub fn from_script(value: &ScriptValue) -> Data {
        match value {
            ScriptValue::Null => Data::Null,
            ScriptValue::Bool(b) => Data::Bool(*b),
            ScriptValue::Int(i) => Data::Int(*i),
            ScriptValue::Float(f) => Data::Float(*f),
            ScriptValue::Str(s) => Data::Str(s.to_string()),
            ScriptValue::List(items) => Data::List(items.iter().map(Data::from_script).collect()),
            ScriptValue::Map(map) => {
                Data::Map(map.iter().map(|(k, v)| (k.clone(), Data::from_script(v))).collect())
            }
        }
    }

    /// Loose equality for validation: numerics compare numerically, lists and
    /// maps recursively; everything else structurally.
    pub fn loose_eq(&self, other: &Data) -> bool {
        match (self, other) {
            (Data::Int(_) | Data::Float(_), Data::Int(_) | Data::Float(_)) => {
                let a = match self {
                    Data::Int(i) => *i as f64,
                    Data::Float(f) => *f,
                    _ => unreachable!(),
                };
                let b = match other {
                    Data::Int(i) => *i as f64,
                    Data::Float(f) => *f,
                    _ => unreachable!(),
                };
                (a - b).abs() < 1e-9
            }
            (Data::List(a), Data::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.loose_eq(y))
            }
            (Data::Map(a), Data::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.loose_eq(vb))
            }
            _ => self == other,
        }
    }
}

fn record_to_script(schema: &Schema, record: &Record) -> ScriptValue {
    let mut map = BTreeMap::new();
    for (i, value) in record.iter().enumerate() {
        let name = if i < schema.len() { schema.name(i).to_string() } else { format!("col{i}") };
        map.insert(name, cell_to_script(value));
    }
    ScriptValue::from(map)
}

/// Convert a dataset cell into a script value.
pub(crate) fn cell_to_script(value: &CellValue) -> ScriptValue {
    match value {
        CellValue::Null => ScriptValue::Null,
        CellValue::Bool(b) => ScriptValue::Bool(*b),
        CellValue::Int(i) => ScriptValue::Int(*i),
        CellValue::Float(f) => ScriptValue::Float(*f),
        CellValue::Str(s) => ScriptValue::from(s.as_str()),
    }
}

impl From<CellValue> for Data {
    fn from(value: CellValue) -> Self {
        match value {
            CellValue::Null => Data::Null,
            CellValue::Bool(b) => Data::Bool(b),
            CellValue::Int(i) => Data::Int(i),
            CellValue::Float(f) => Data::Float(f),
            CellValue::Str(s) => Data::Str(s),
        }
    }
}

impl From<&str> for Data {
    fn from(s: &str) -> Self {
        Data::Str(s.to_string())
    }
}
impl From<String> for Data {
    fn from(s: String) -> Self {
        Data::Str(s)
    }
}
impl From<bool> for Data {
    fn from(b: bool) -> Self {
        Data::Bool(b)
    }
}
impl From<i64> for Data {
    fn from(i: i64) -> Self {
        Data::Int(i)
    }
}
impl From<Table> for Data {
    fn from(t: Table) -> Self {
        Data::Table(t)
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::csv;

    fn table() -> Table {
        csv::read_str("t", "name,price\nwidget,9.99\ngadget,\n").unwrap()
    }

    #[test]
    fn table_to_script_round_trip_shape() {
        let data = Data::Table(table());
        let script = data.to_script();
        let list = match &script {
            ScriptValue::List(items) => items,
            other => panic!("expected list, got {other:?}"),
        };
        assert_eq!(list.len(), 2);
        let first = list[0].as_map().unwrap();
        assert_eq!(first.get("name"), Some(&ScriptValue::Str("widget".into())));
        assert_eq!(first.get("price"), Some(&ScriptValue::Float(9.99)));
        let second = list[1].as_map().unwrap();
        assert_eq!(second.get("price"), Some(&ScriptValue::Null));
    }

    #[test]
    fn scalar_conversions_round_trip() {
        for data in [
            Data::Null,
            Data::Bool(true),
            Data::Int(-4),
            Data::Float(2.5),
            Data::Str("hello".into()),
            Data::List(vec![Data::Int(1), Data::Str("x".into())]),
            Data::map([("k".to_string(), Data::Int(1))]),
        ] {
            assert_eq!(Data::from_script(&data.to_script()), data);
        }
    }

    #[test]
    fn record_renders_for_prompts() {
        let t = table();
        let data = Data::record(t.schema().clone(), t.rows()[0].clone());
        assert_eq!(data.render(), "name: widget; price: 9.99");
    }

    #[test]
    fn shape_errors() {
        let err = Data::Str("x".into()).as_table().unwrap_err();
        assert!(matches!(err, CoreError::DataShape { expected: "table", .. }));
    }

    #[test]
    fn loose_eq_numeric_tolerance() {
        assert!(Data::Int(2).loose_eq(&Data::Float(2.0)));
        assert!(!Data::Int(2).loose_eq(&Data::Float(2.1)));
        assert!(Data::List(vec![Data::Int(1)]).loose_eq(&Data::List(vec![Data::Float(1.0)])));
        assert!(!Data::Str("2".into()).loose_eq(&Data::Int(2)));
    }

    #[test]
    fn cell_conversions() {
        assert_eq!(Data::from(CellValue::Str("a".into())), Data::Str("a".into()));
    }
}
