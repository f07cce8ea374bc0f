//! A single row of values.

use crate::Value;
use std::fmt;

/// A row. Records are positional; pairing with a [`crate::Schema`] gives the
/// columns names. Most record-at-a-time module interfaces in `lingua-core`
/// pass records together with their schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    pub fn set(&mut self, index: usize, value: Value) {
        self.values[index] = value;
    }

    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// Render as `field=value` pairs given a schema — the serialization used
    /// when a record is shown to the (simulated) LLM.
    pub fn describe(&self, schema: &crate::Schema) -> String {
        let mut out = String::new();
        for (i, value) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            let name = if i < schema.len() { schema.name(i) } else { "?" };
            out.push_str(name);
            out.push_str(": ");
            out.push_str(&value.render());
        }
        out
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, value) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{value}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record { values }
    }
}

impl std::ops::Index<usize> for Record {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        &self.values[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn sample() -> Record {
        Record::new(vec![Value::Int(1), Value::Str("ok".into()), Value::Null])
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r.get(5), None);
    }

    #[test]
    fn describe_uses_schema_names() {
        let r = sample();
        let schema = Schema::of_names(["id", "status", "note"]);
        assert_eq!(r.describe(&schema), "id: 1; status: ok; note: ");
    }

    #[test]
    fn set_and_push() {
        let mut r = sample();
        r.set(2, Value::Bool(true));
        r.push(Value::Float(1.5));
        assert_eq!(r[2], Value::Bool(true));
        assert_eq!(r.len(), 4);
    }
}
