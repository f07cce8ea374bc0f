//! Operator, index and mutation semantics over [`Value`] — the single
//! definition both the VM and the tree-walking oracle execute, the way
//! [`crate::builtins::call`] is the single definition of every builtin.

use crate::ast::BinOp;
use crate::bytecode::MutOp;
use crate::error::{ScriptError, Span};
use crate::value::Value;
use std::sync::Arc;

pub(crate) fn negate(v: Value, span: Span) -> Result<Value, ScriptError> {
    match v {
        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
        Value::Float(f) => Ok(Value::Float(-f)),
        other => Err(ScriptError::runtime(span, format!("cannot negate a {}", other.type_name()))),
    }
}

/// Every binary operator except the short-circuiting `&&` / `||`, which the
/// engines lower to control flow before evaluating the right operand.
pub(crate) fn binary(op: BinOp, l: &Value, r: &Value, span: Span) -> Result<Value, ScriptError> {
    match op {
        BinOp::Eq => Ok(Value::Bool(l.loose_eq(r))),
        BinOp::Ne => Ok(Value::Bool(!l.loose_eq(r))),
        BinOp::Add => add_values(l, r, span),
        BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => arith(op, l, r, span),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => compare(op, l, r, span),
        BinOp::And | BinOp::Or => unreachable!("logical operators short-circuit in the engine"),
    }
}

/// The items a `for` loop walks: list elements, map keys, string chars.
pub(crate) fn iterate(iterable: Value, span: Span) -> Result<Vec<Value>, ScriptError> {
    match iterable {
        Value::List(items) => Ok(Arc::try_unwrap(items).unwrap_or_else(|shared| (*shared).clone())),
        Value::Map(map) => Ok(map.keys().map(|k| Value::from(k.as_str())).collect()),
        Value::Str(s) => Ok(s.chars().map(Value::from).collect()),
        other => Err(ScriptError::runtime(span, format!("cannot iterate a {}", other.type_name()))),
    }
}

/// `push(list, v)`, `pop(list)`, `insert(map, k, v)`, `delete(map, k)` against
/// an already-resolved container; a shared container is copied on write.
pub(crate) fn mutate(
    op: MutOp,
    target: &mut Value,
    rest: &[Value],
    span: Span,
) -> Result<Value, ScriptError> {
    match (op, target) {
        (MutOp::Push, Value::List(items)) => {
            let v = rest
                .first()
                .cloned()
                .ok_or_else(|| ScriptError::runtime(span, "push expects (list, value)"))?;
            Arc::make_mut(items).push(v);
            Ok(Value::Null)
        }
        (MutOp::Pop, Value::List(items)) => Ok(Arc::make_mut(items).pop().unwrap_or(Value::Null)),
        (MutOp::Insert, Value::Map(map)) => {
            let [k, v] = rest else {
                return Err(ScriptError::runtime(span, "insert expects (map, key, value)"));
            };
            let key =
                k.as_str().ok_or_else(|| ScriptError::runtime(span, "map keys must be strings"))?;
            Arc::make_mut(map).insert(key.to_string(), v.clone());
            Ok(Value::Null)
        }
        (MutOp::Delete, Value::Map(map)) => {
            let k = rest
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| ScriptError::runtime(span, "delete expects (map, key)"))?;
            Ok(Arc::make_mut(map).remove(k).unwrap_or(Value::Null))
        }
        (op, other) => Err(ScriptError::runtime(
            span,
            format!("{} cannot operate on a {}", op.name(), other.type_name()),
        )),
    }
}

pub(crate) fn read_index(base: &Value, index: &Value, span: Span) -> Result<Value, ScriptError> {
    match (base, index) {
        (Value::List(items), Value::Int(i)) => normalize_index(*i, items.len())
            .map(|idx| items[idx].clone())
            .ok_or_else(|| ScriptError::runtime(span, format!("list index {i} out of bounds"))),
        (Value::Map(map), Value::Str(k)) => Ok(map.get(&**k).cloned().unwrap_or(Value::Null)),
        (Value::Str(s), Value::Int(i)) => normalize_index(*i, s.chars().count())
            .and_then(|idx| s.chars().nth(idx))
            .map(Value::from)
            .ok_or_else(|| ScriptError::runtime(span, format!("string index {i} out of bounds"))),
        (b, i) => Err(ScriptError::runtime(
            span,
            format!("cannot index {} with {}", b.type_name(), i.type_name()),
        )),
    }
}

pub(crate) fn index_mut<'v>(
    base: &'v mut Value,
    index: &Value,
    span: Span,
) -> Result<&'v mut Value, ScriptError> {
    match (base, index) {
        (Value::List(items), Value::Int(i)) => {
            // Bounds first: an out-of-range index must not unshare the list.
            let idx = normalize_index(*i, items.len()).ok_or_else(|| {
                ScriptError::runtime(span, format!("list index {i} out of bounds"))
            })?;
            Ok(&mut Arc::make_mut(items)[idx])
        }
        (Value::Map(map), Value::Str(k)) => Arc::make_mut(map)
            .get_mut(&**k)
            .ok_or_else(|| ScriptError::runtime(span, format!("missing map key `{k}`"))),
        (b, i) => Err(ScriptError::runtime(
            span,
            format!("cannot index {} with {}", b.type_name(), i.type_name()),
        )),
    }
}

pub(crate) fn assign_index(
    container: &mut Value,
    index: &Value,
    value: Value,
    span: Span,
) -> Result<(), ScriptError> {
    match (container, index) {
        (Value::List(items), Value::Int(i)) => {
            let idx = normalize_index(*i, items.len()).ok_or_else(|| {
                ScriptError::runtime(span, format!("list index {i} out of bounds"))
            })?;
            Arc::make_mut(items)[idx] = value;
            Ok(())
        }
        (Value::Map(map), Value::Str(k)) => {
            Arc::make_mut(map).insert(k.to_string(), value);
            Ok(())
        }
        (c, i) => Err(ScriptError::runtime(
            span,
            format!("cannot index-assign {} with {}", c.type_name(), i.type_name()),
        )),
    }
}

/// Negative indices count from the end (Python-style). `unsigned_abs` keeps
/// `i64::MIN` — reachable through wrapping arithmetic — an ordinary
/// out-of-bounds index instead of a negation overflow.
fn normalize_index(i: i64, len: usize) -> Option<usize> {
    let len = len as u64;
    let idx = if i >= 0 { i as u64 } else { len.checked_sub(i.unsigned_abs())? };
    (idx < len).then_some(idx as usize)
}

fn add_values(l: &Value, r: &Value, span: Span) -> Result<Value, ScriptError> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
        (Value::Str(a), Value::Str(b)) => Ok(Value::from([&**a, &**b].concat())),
        // String + anything stringifies the other side (handy for prompts).
        (Value::Str(a), b) => Ok(Value::from(format!("{a}{b}"))),
        (a, Value::Str(b)) => Ok(Value::from(format!("{a}{b}"))),
        (Value::List(a), Value::List(b)) => {
            let mut out = Vec::with_capacity(a.len() + b.len());
            out.extend(a.iter().chain(b.iter()).cloned());
            Ok(Value::from(out))
        }
        (a, b) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Ok(Value::Float(x + y)),
            _ => Err(ScriptError::runtime(
                span,
                format!("cannot add {} and {}", a.type_name(), b.type_name()),
            )),
        },
    }
}

fn arith(op: BinOp, l: &Value, r: &Value, span: Span) -> Result<Value, ScriptError> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            BinOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            BinOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            BinOp::Div => {
                if *b == 0 {
                    Err(ScriptError::runtime(span, "division by zero"))
                } else {
                    Ok(Value::Int(a.wrapping_div(*b)))
                }
            }
            BinOp::Rem => {
                if *b == 0 {
                    Err(ScriptError::runtime(span, "remainder by zero"))
                } else {
                    Ok(Value::Int(a.wrapping_rem(*b)))
                }
            }
            _ => unreachable!(),
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(x), Some(y)) => match op {
            BinOp::Sub => Ok(Value::Float(x - y)),
            BinOp::Mul => Ok(Value::Float(x * y)),
            BinOp::Div => {
                if y == 0.0 {
                    Err(ScriptError::runtime(span, "division by zero"))
                } else {
                    Ok(Value::Float(x / y))
                }
            }
            BinOp::Rem => Ok(Value::Float(x % y)),
            _ => unreachable!(),
        },
        _ => Err(ScriptError::runtime(
            span,
            format!("cannot apply `{}` to {} and {}", op.symbol(), l.type_name(), r.type_name()),
        )),
    }
}

fn compare(op: BinOp, l: &Value, r: &Value, span: Span) -> Result<Value, ScriptError> {
    let ord = match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(x), Some(y)) => {
                x.partial_cmp(&y).ok_or_else(|| ScriptError::runtime(span, "cannot compare NaN"))?
            }
            _ => {
                return Err(ScriptError::runtime(
                    span,
                    format!(
                        "cannot compare {} and {} with `{}`",
                        l.type_name(),
                        r.type_name(),
                        op.symbol()
                    ),
                ))
            }
        },
    };
    let result = match op {
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!(),
    };
    Ok(Value::Bool(result))
}
