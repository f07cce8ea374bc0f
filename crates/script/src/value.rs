//! Runtime values.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A MangaScript runtime value — the one representation both engines, the
/// builtins and the host bridge share. Scalars are inline; strings, lists
/// and maps sit behind an `Arc`, so a clone (variable load, argument pass,
/// host call) is a refcount bump. Mutation goes through `Arc::make_mut`
/// (copy-on-write), which keeps the language's pass-by-value semantics: a
/// callee or host mutating its copy never affects the caller's.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    List(Arc<Vec<Value>>),
    /// Maps have string keys and preserve key order (sorted).
    Map(Arc<BTreeMap<String, Value>>),
}

impl Value {
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// Truthiness: `null` and `false` are falsy; everything else truthy.
    pub(crate) fn truthy(&self) -> bool {
        !matches!(self, Value::Null | Value::Bool(false))
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Structural equality with numeric Int/Float coercion — the semantics of
    /// the `==` operator.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                self.as_f64() == other.as_f64()
            }
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.loose_eq(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.loose_eq(vb))
            }
            _ => self == other,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match item {
                        Value::Str(s) => write!(f, "{s:?}")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, "]")
            }
            Value::Map(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "{k:?}: {s:?}")?,
                        other => write!(f, "{k:?}: {other}")?,
                    }
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}
impl From<char> for Value {
    fn from(c: char) -> Self {
        Value::Str(Arc::from(&*c.encode_utf8(&mut [0; 4])))
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::List(Arc::new(items))
    }
}
impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::List(Arc::new(items.into_iter().collect()))
    }
}
impl From<BTreeMap<String, Value>> for Value {
    fn from(map: BTreeMap<String, Value>) -> Self {
        Value::Map(Arc::new(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Int(0).truthy()); // numbers are always truthy
        assert!(Value::Str("".into()).truthy());
        assert!(Value::List(vec![].into()).truthy());
    }

    #[test]
    fn loose_eq_coerces_numbers() {
        assert!(Value::Int(2).loose_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).loose_eq(&Value::Float(2.5)));
        assert!(Value::from(vec![Value::Int(1)]).loose_eq(&Value::from(vec![Value::Float(1.0)])));
        assert!(!Value::Str("2".into()).loose_eq(&Value::Int(2)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(
            Value::from(vec![Value::Int(1), Value::Str("x".into())]).to_string(),
            "[1, \"x\"]"
        );
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(1));
        assert_eq!(Value::from(m).to_string(), "{\"k\": 1}");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Null.as_list(), None);
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }

    #[test]
    fn representation_stays_small() {
        // Tag + a fat `Arc<str>`: 24 bytes, against 9–16 for Rune's
        // (SNIPPETS.md Snippet 3). Shrinking it is ROADMAP's parked thin
        // string pointer entry, after item 7.
        assert!(std::mem::size_of::<Value>() <= 24);
    }
}
