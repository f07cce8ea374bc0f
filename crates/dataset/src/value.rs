//! Dynamically-typed cell values.

use std::cmp::Ordering;
use std::fmt;

/// A single table cell.
///
/// `Value` is deliberately small and cheap to clone for everything except
/// strings. Numeric comparisons between `Int` and `Float` coerce to `f64`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing.
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    /// Human-readable name of the value's runtime type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow the string content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` coerce to `f64`; everything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render the value the way the CSV writer and the query engine do.
    ///
    /// `Null` renders as the empty string; floats keep a trailing `.0` when
    /// integral so they round-trip as floats.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Value::Str(s) => s.clone(),
        }
    }

    /// Parse a textual cell into the "narrowest" value: empty → Null,
    /// then bool, int, float, falling back to `Str`.
    pub(crate) fn infer(text: &str) -> Value {
        if text.is_empty() {
            return Value::Null;
        }
        match text {
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = text.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = text.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
        }
        Value::Str(text.to_string())
    }

    /// Total ordering used by `ORDER BY`: Null < Bool < numbers < Str.
    /// NaN sorts after all other floats to keep the order total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a @ (Int(_) | Float(_)), b @ (Int(_) | Float(_))) => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or_else(|| {
                    // NaN handling: NaN > non-NaN; NaN == NaN.
                    match (x.is_nan(), y.is_nan()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => Ordering::Greater,
                        (false, true) => Ordering::Less,
                        (false, false) => unreachable!(),
                    }
                })
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL-style equality: Null equals nothing (not even Null);
    /// Int/Float compare numerically.
    pub(crate) fn sql_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => false,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (a @ (Int(_) | Float(_)), b @ (Int(_) | Float(_))) => {
                a.as_f64().unwrap() == b.as_f64().unwrap()
            }
            _ => false,
        }
    }
}

impl PartialEq for Value {
    /// Structural equality (Null == Null); used by tests and containers.
    /// The query engine compares with SQL semantics instead (`sql_eq`).
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
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
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(opt: Option<T>) -> Self {
        match opt {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_narrows_types() {
        assert_eq!(Value::infer(""), Value::Null);
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("-3"), Value::Int(-3));
        assert_eq!(Value::infer("4.5"), Value::Float(4.5));
        assert_eq!(Value::infer("4.5x"), Value::Str("4.5x".into()));
        assert_eq!(Value::infer("Sony"), Value::Str("Sony".into()));
    }

    #[test]
    fn render_roundtrips_through_infer() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Int(7),
            Value::Float(2.5),
            Value::Float(3.0),
            Value::Str("hello world".into()),
        ] {
            assert_eq!(Value::infer(&v.render()), v, "value {v:?}");
        }
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(2)), Ordering::Equal);
    }

    #[test]
    fn null_is_not_sql_equal_to_null() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert_eq!(Value::Null, Value::Null); // structural equality differs
    }

    #[test]
    fn ordering_ranks_types() {
        let mut vals = vec![Value::Str("a".into()), Value::Int(0), Value::Null, Value::Bool(true)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vals,
            vec![Value::Null, Value::Bool(true), Value::Int(0), Value::Str("a".into())]
        );
    }

    #[test]
    fn nan_sorts_last_among_numbers() {
        let mut vals = [Value::Float(f64::NAN), Value::Float(1.0), Value::Int(5)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Float(1.0));
        assert_eq!(vals[1], Value::Int(5));
        assert!(matches!(vals[2], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(Some(1i64)), Value::Int(1));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::Int(5).as_i64(), Some(5));
        assert_eq!(Value::Float(5.0).as_i64(), Some(5));
        assert_eq!(Value::Float(5.5).as_i64(), None);
    }
}
