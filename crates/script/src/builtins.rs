//! The builtin function library available to every MangaScript program.
//!
//! String-similarity builtins delegate to `lingua-ml`'s implementations so
//! generated code and the ML substrate agree on semantics.

use crate::error::{ScriptError, Span};
use crate::host::DEFAULT_FUEL;
use crate::value::Value;
use lingua_ml::textsim;

fn err(span: Span, message: impl Into<String>) -> ScriptError {
    ScriptError::runtime(span, message)
}

fn want_str<'a>(
    name: &str,
    args: &'a [Value],
    i: usize,
    span: Span,
) -> Result<&'a str, ScriptError> {
    args.get(i)
        .and_then(|v| v.as_str())
        .ok_or_else(|| err(span, format!("{name}: argument {} must be a string", i + 1)))
}

fn want_int(name: &str, args: &[Value], i: usize, span: Span) -> Result<i64, ScriptError> {
    args.get(i)
        .and_then(|v| v.as_int())
        .ok_or_else(|| err(span, format!("{name}: argument {} must be an int", i + 1)))
}

fn want_num(name: &str, args: &[Value], i: usize, span: Span) -> Result<f64, ScriptError> {
    args.get(i)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| err(span, format!("{name}: argument {} must be a number", i + 1)))
}

fn arity(name: &str, args: &[Value], n: usize, span: Span) -> Result<(), ScriptError> {
    if args.len() != n {
        Err(err(span, format!("{name} expects {n} argument(s), got {}", args.len())))
    } else {
        Ok(())
    }
}

/// Dispatch a builtin by name. Returns a runtime error for unknown names.
pub fn call(name: &str, args: &[Value], span: Span) -> Result<Value, ScriptError> {
    match name {
        // -- inspection -----------------------------------------------------
        "len" => {
            arity(name, args, 1, span)?;
            let n = match &args[0] {
                Value::Str(s) => s.chars().count(),
                Value::List(items) => items.len(),
                Value::Map(m) => m.len(),
                other => {
                    return Err(err(span, format!("len: cannot measure a {}", other.type_name())))
                }
            };
            Ok(Value::Int(n as i64))
        }
        "typeof" => {
            arity(name, args, 1, span)?;
            Ok(Value::from(args[0].type_name()))
        }
        "is_null" => {
            arity(name, args, 1, span)?;
            Ok(Value::Bool(matches!(args[0], Value::Null)))
        }

        // -- strings ----------------------------------------------------------
        "lower" => {
            arity(name, args, 1, span)?;
            Ok(Value::from(want_str(name, args, 0, span)?.to_lowercase()))
        }
        "upper" => {
            arity(name, args, 1, span)?;
            Ok(Value::from(want_str(name, args, 0, span)?.to_uppercase()))
        }
        "trim" => {
            arity(name, args, 1, span)?;
            Ok(Value::from(want_str(name, args, 0, span)?.trim()))
        }
        "capitalize" => {
            arity(name, args, 1, span)?;
            let s = want_str(name, args, 0, span)?;
            let mut chars = s.chars();
            let out = match chars.next() {
                Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            };
            Ok(Value::from(out))
        }
        "split" => {
            arity(name, args, 2, span)?;
            let s = want_str(name, args, 0, span)?;
            let sep = want_str(name, args, 1, span)?;
            Ok(if sep.is_empty() {
                s.split_whitespace().map(Value::from).collect()
            } else {
                s.split(sep).map(Value::from).collect()
            })
        }
        "join" => {
            arity(name, args, 2, span)?;
            let items = args[0]
                .as_list()
                .ok_or_else(|| err(span, "join: first argument must be a list"))?;
            let sep = want_str(name, args, 1, span)?;
            let parts: Vec<String> = items.iter().map(|v| v.to_string()).collect();
            Ok(Value::from(parts.join(sep)))
        }
        "contains" => {
            arity(name, args, 2, span)?;
            match (&args[0], &args[1]) {
                (Value::Str(hay), Value::Str(needle)) => Ok(Value::Bool(hay.contains(&**needle))),
                (Value::List(items), needle) => {
                    Ok(Value::Bool(items.iter().any(|v| v.loose_eq(needle))))
                }
                (Value::Map(map), Value::Str(key)) => Ok(Value::Bool(map.contains_key(&**key))),
                (a, b) => Err(err(
                    span,
                    format!("contains: unsupported types {} / {}", a.type_name(), b.type_name()),
                )),
            }
        }
        "starts_with" => {
            arity(name, args, 2, span)?;
            Ok(Value::Bool(
                want_str(name, args, 0, span)?.starts_with(want_str(name, args, 1, span)?),
            ))
        }
        "ends_with" => {
            arity(name, args, 2, span)?;
            Ok(Value::Bool(
                want_str(name, args, 0, span)?.ends_with(want_str(name, args, 1, span)?),
            ))
        }
        "replace" => {
            arity(name, args, 3, span)?;
            let s = want_str(name, args, 0, span)?;
            let from = want_str(name, args, 1, span)?;
            let to = want_str(name, args, 2, span)?;
            Ok(Value::from(s.replace(from, to)))
        }
        "substr" => {
            arity(name, args, 3, span)?;
            let s: Vec<char> = want_str(name, args, 0, span)?.chars().collect();
            let start = want_int(name, args, 1, span)?.max(0) as usize;
            let count = want_int(name, args, 2, span)?.max(0) as usize;
            let out: String = s.iter().skip(start).take(count).collect();
            Ok(Value::from(out))
        }
        "index_of" => {
            arity(name, args, 2, span)?;
            let s = want_str(name, args, 0, span)?;
            let sub = want_str(name, args, 1, span)?;
            match s.find(sub) {
                // Return a character index, not a byte index.
                Some(byte) => Ok(Value::Int(s[..byte].chars().count() as i64)),
                None => Ok(Value::Int(-1)),
            }
        }
        "chars" => {
            arity(name, args, 1, span)?;
            let s = want_str(name, args, 0, span)?;
            Ok(s.chars().map(Value::from).collect())
        }
        "is_alpha" => {
            arity(name, args, 1, span)?;
            let s = want_str(name, args, 0, span)?;
            Ok(Value::Bool(!s.is_empty() && s.chars().all(|c| c.is_alphabetic())))
        }
        "is_digit" => {
            arity(name, args, 1, span)?;
            let s = want_str(name, args, 0, span)?;
            Ok(Value::Bool(!s.is_empty() && s.chars().all(|c| c.is_ascii_digit())))
        }
        "is_upper" => {
            arity(name, args, 1, span)?;
            let s = want_str(name, args, 0, span)?;
            Ok(Value::Bool(s.chars().next().map(|c| c.is_uppercase()).unwrap_or(false)))
        }

        // -- text analysis (shared with lingua-ml) -----------------------------
        "tokenize" => {
            arity(name, args, 1, span)?;
            let s = want_str(name, args, 0, span)?;
            Ok(textsim::tokens(s).into_iter().map(Value::from).collect())
        }
        "levenshtein" => {
            arity(name, args, 2, span)?;
            Ok(Value::Int(textsim::levenshtein(
                want_str(name, args, 0, span)?,
                want_str(name, args, 1, span)?,
            ) as i64))
        }
        "levenshtein_sim" => {
            arity(name, args, 2, span)?;
            Ok(Value::Float(textsim::levenshtein_sim(
                want_str(name, args, 0, span)?,
                want_str(name, args, 1, span)?,
            )))
        }
        "jaro_winkler" => {
            arity(name, args, 2, span)?;
            Ok(Value::Float(textsim::jaro_winkler(
                want_str(name, args, 0, span)?,
                want_str(name, args, 1, span)?,
            )))
        }
        "jaccard" => {
            arity(name, args, 2, span)?;
            Ok(Value::Float(textsim::jaccard_tokens(
                want_str(name, args, 0, span)?,
                want_str(name, args, 1, span)?,
            )))
        }
        "overlap" => {
            arity(name, args, 2, span)?;
            Ok(Value::Float(textsim::overlap_tokens(
                want_str(name, args, 0, span)?,
                want_str(name, args, 1, span)?,
            )))
        }

        // -- numbers ----------------------------------------------------------
        "abs" => {
            arity(name, args, 1, span)?;
            match &args[0] {
                // Wraps like unary minus: `abs(i64::MIN)` is `i64::MIN`.
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(err(span, format!("abs: cannot take abs of {}", other.type_name()))),
            }
        }
        "min" => {
            arity(name, args, 2, span)?;
            let (a, b) = (want_num(name, args, 0, span)?, want_num(name, args, 1, span)?);
            Ok(number(a.min(b), &args[0], &args[1]))
        }
        "max" => {
            arity(name, args, 2, span)?;
            let (a, b) = (want_num(name, args, 0, span)?, want_num(name, args, 1, span)?);
            Ok(number(a.max(b), &args[0], &args[1]))
        }
        "round" => {
            arity(name, args, 1, span)?;
            Ok(Value::Int(want_num(name, args, 0, span)?.round() as i64))
        }
        "floor" => {
            arity(name, args, 1, span)?;
            Ok(Value::Int(want_num(name, args, 0, span)?.floor() as i64))
        }
        "ceil" => {
            arity(name, args, 1, span)?;
            Ok(Value::Int(want_num(name, args, 0, span)?.ceil() as i64))
        }
        "sqrt" => {
            arity(name, args, 1, span)?;
            let x = want_num(name, args, 0, span)?;
            if x < 0.0 {
                return Err(err(span, "sqrt of a negative number"));
            }
            Ok(Value::Float(x.sqrt()))
        }

        // -- conversions -------------------------------------------------------
        "to_str" => {
            arity(name, args, 1, span)?;
            Ok(Value::from(args[0].to_string()))
        }
        "to_int" => {
            arity(name, args, 1, span)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(*f as i64)),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| err(span, format!("to_int: cannot parse `{s}`"))),
                other => Err(err(span, format!("to_int: cannot convert {}", other.type_name()))),
            }
        }
        "to_float" => {
            arity(name, args, 1, span)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Float(*i as f64)),
                Value::Float(f) => Ok(Value::Float(*f)),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| err(span, format!("to_float: cannot parse `{s}`"))),
                other => Err(err(span, format!("to_float: cannot convert {}", other.type_name()))),
            }
        }
        "parse_int" => {
            arity(name, args, 1, span)?;
            let parsed = args[0].as_str().and_then(|s| s.trim().parse::<i64>().ok());
            Ok(parsed.map(Value::Int).unwrap_or(Value::Null))
        }
        "parse_float" => {
            arity(name, args, 1, span)?;
            let parsed = args[0].as_str().and_then(|s| s.trim().parse::<f64>().ok());
            Ok(parsed.map(Value::Float).unwrap_or(Value::Null))
        }

        // -- lists -------------------------------------------------------------
        "range" => {
            let (lo, hi) = match args.len() {
                1 => (0, want_int(name, args, 0, span)?),
                2 => (want_int(name, args, 0, span)?, want_int(name, args, 1, span)?),
                n => return Err(err(span, format!("range expects 1 or 2 arguments, got {n}"))),
            };
            // One call costs one fuel tick whatever it builds, and a failed
            // allocation aborts instead of unwinding, so the length is bounded
            // here: no default-budget program could finish iterating more.
            if hi.saturating_sub(lo) > DEFAULT_FUEL as i64 {
                return Err(err(span, format!("range: {lo}..{hi} is longer than {DEFAULT_FUEL}")));
            }
            Ok((lo..hi).map(Value::Int).collect())
        }
        "sort" => {
            arity(name, args, 1, span)?;
            let mut items = args[0]
                .as_list()
                .ok_or_else(|| err(span, "sort: argument must be a list"))?
                .to_vec();
            items.sort_by(|a, b| match (a, b) {
                (Value::Str(x), Value::Str(y)) => x.cmp(y),
                _ => a.as_f64().partial_cmp(&b.as_f64()).unwrap_or(std::cmp::Ordering::Equal),
            });
            Ok(Value::from(items))
        }
        "reverse" => {
            arity(name, args, 1, span)?;
            match &args[0] {
                Value::List(items) => Ok(items.iter().rev().cloned().collect()),
                Value::Str(s) => Ok(s.chars().rev().collect::<String>().into()),
                other => Err(err(span, format!("reverse: cannot reverse a {}", other.type_name()))),
            }
        }
        "slice" => {
            arity(name, args, 3, span)?;
            let items = args[0]
                .as_list()
                .ok_or_else(|| err(span, "slice: first argument must be a list"))?;
            let start = want_int(name, args, 1, span)?.max(0) as usize;
            let end = (want_int(name, args, 2, span)?.max(0) as usize).min(items.len());
            let out = if start >= end { vec![] } else { items[start..end].to_vec() };
            Ok(Value::from(out))
        }
        "concat" => {
            arity(name, args, 2, span)?;
            let a =
                args[0].as_list().ok_or_else(|| err(span, "concat: arguments must be lists"))?;
            let b =
                args[1].as_list().ok_or_else(|| err(span, "concat: arguments must be lists"))?;
            let mut out = a.to_vec();
            out.extend(b.iter().cloned());
            Ok(Value::from(out))
        }
        "unique" => {
            arity(name, args, 1, span)?;
            let items =
                args[0].as_list().ok_or_else(|| err(span, "unique: argument must be a list"))?;
            let mut out: Vec<Value> = Vec::new();
            for item in items {
                if !out.iter().any(|v| v.loose_eq(item)) {
                    out.push(item.clone());
                }
            }
            Ok(Value::from(out))
        }
        "sum" => {
            arity(name, args, 1, span)?;
            let items =
                args[0].as_list().ok_or_else(|| err(span, "sum: argument must be a list"))?;
            let mut acc = 0.0;
            let mut all_int = true;
            for item in items {
                match item {
                    Value::Int(i) => acc += *i as f64,
                    Value::Float(f) => {
                        acc += f;
                        all_int = false;
                    }
                    other => {
                        return Err(err(span, format!("sum: cannot add a {}", other.type_name())))
                    }
                }
            }
            Ok(if all_int { Value::Int(acc as i64) } else { Value::Float(acc) })
        }

        // -- maps --------------------------------------------------------------
        "keys" => {
            arity(name, args, 1, span)?;
            let map = args[0].as_map().ok_or_else(|| err(span, "keys: argument must be a map"))?;
            Ok(map.keys().map(|k| Value::from(k.as_str())).collect())
        }
        "values" => {
            arity(name, args, 1, span)?;
            let map =
                args[0].as_map().ok_or_else(|| err(span, "values: argument must be a map"))?;
            Ok(map.values().cloned().collect())
        }
        "has_key" => {
            arity(name, args, 2, span)?;
            let map = args[0]
                .as_map()
                .ok_or_else(|| err(span, "has_key: first argument must be a map"))?;
            Ok(Value::Bool(map.contains_key(want_str(name, args, 1, span)?)))
        }
        "get_or" => {
            arity(name, args, 3, span)?;
            let map = args[0]
                .as_map()
                .ok_or_else(|| err(span, "get_or: first argument must be a map"))?;
            let key = want_str(name, args, 1, span)?;
            Ok(map.get(key).cloned().unwrap_or_else(|| args[2].clone()))
        }

        other => Err(err(span, format!("unknown function `{other}`"))),
    }
}

/// Preserve int-ness of min/max when both inputs are ints.
fn number(result: f64, a: &Value, b: &Value) -> Value {
    if matches!(a, Value::Int(_)) && matches!(b, Value::Int(_)) {
        Value::Int(result as i64)
    } else {
        Value::Float(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, parse, NoHost, Vm};
    use std::sync::Arc;

    fn run(expr: &str) -> Result<Value, ScriptError> {
        let src = format!("fn main() {{ return {expr}; }}");
        let script = Arc::new(compile(&parse(&src).unwrap()));
        Vm::new(script).call(&mut NoHost, "main", vec![])
    }

    fn eval(expr: &str) -> Value {
        run(expr).unwrap()
    }

    fn eval_err(expr: &str) -> ScriptError {
        run(expr).unwrap_err()
    }

    #[test]
    fn string_builtins() {
        assert_eq!(eval(r#"lower("ABC")"#), Value::Str("abc".into()));
        assert_eq!(eval(r#"upper("abc")"#), Value::Str("ABC".into()));
        assert_eq!(eval(r#"trim("  x  ")"#), Value::Str("x".into()));
        assert_eq!(eval(r#"capitalize("word")"#), Value::Str("Word".into()));
        assert_eq!(eval(r#"replace("a-b-c", "-", "+")"#), Value::Str("a+b+c".into()));
        assert_eq!(eval(r#"substr("hello", 1, 3)"#), Value::Str("ell".into()));
        assert_eq!(eval(r#"index_of("hello", "ll")"#), Value::Int(2));
        assert_eq!(eval(r#"index_of("hello", "zz")"#), Value::Int(-1));
        assert_eq!(eval(r#"starts_with("hello", "he")"#), Value::Bool(true));
        assert_eq!(eval(r#"ends_with("hello", "lo")"#), Value::Bool(true));
    }

    #[test]
    fn split_and_join() {
        assert_eq!(eval(r#"join(split("a,b,c", ","), "|")"#), Value::Str("a|b|c".into()));
        // Empty separator = whitespace split.
        assert_eq!(eval(r#"len(split("a b   c", ""))"#), Value::Int(3));
    }

    #[test]
    fn contains_variants() {
        assert_eq!(eval(r#"contains("haystack", "hay")"#), Value::Bool(true));
        assert_eq!(eval(r#"contains([1, 2, 3], 2)"#), Value::Bool(true));
        assert_eq!(eval(r#"contains([1, 2, 3], 9)"#), Value::Bool(false));
        assert_eq!(eval(r#"contains({"k": 1}, "k")"#), Value::Bool(true));
    }

    #[test]
    fn char_classes() {
        assert_eq!(eval(r#"is_alpha("Word")"#), Value::Bool(true));
        assert_eq!(eval(r#"is_alpha("w0rd")"#), Value::Bool(false));
        assert_eq!(eval(r#"is_digit("123")"#), Value::Bool(true));
        assert_eq!(eval(r#"is_upper("Word")"#), Value::Bool(true));
        assert_eq!(eval(r#"is_upper("word")"#), Value::Bool(false));
        assert_eq!(eval(r#"is_upper("")"#), Value::Bool(false));
    }

    #[test]
    fn similarity_builtins() {
        assert_eq!(eval(r#"levenshtein("kitten", "sitting")"#), Value::Int(3));
        assert!(matches!(eval(r#"jaro_winkler("martha", "marhta")"#), Value::Float(f) if f > 0.9));
        assert!(matches!(eval(r#"jaccard("a b", "a b")"#), Value::Float(f) if f == 1.0));
        assert!(matches!(eval(r#"overlap("a b", "a b c")"#), Value::Float(f) if f == 1.0));
        assert_eq!(
            eval(r#"tokenize("Hello, World!")"#),
            Value::from(vec![Value::Str("hello".into()), Value::Str("world".into())])
        );
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(eval("abs(-3)"), Value::Int(3));
        assert_eq!(eval("abs(-3.5)"), Value::Float(3.5));
        assert_eq!(eval("abs(0 - 9223372036854775807 - 1)"), Value::Int(i64::MIN));
        assert_eq!(eval("min(3, 5)"), Value::Int(3));
        assert_eq!(eval("max(3, 5.0)"), Value::Float(5.0));
        assert_eq!(eval("round(2.5)"), Value::Int(3));
        assert_eq!(eval("floor(2.9)"), Value::Int(2));
        assert_eq!(eval("ceil(2.1)"), Value::Int(3));
        assert_eq!(eval("sqrt(9)"), Value::Float(3.0));
        assert!(matches!(eval_err("sqrt(-1)"), ScriptError::Runtime { .. }));
    }

    #[test]
    fn conversions() {
        assert_eq!(eval(r#"to_int("42")"#), Value::Int(42));
        assert_eq!(eval("to_int(3.9)"), Value::Int(3));
        assert_eq!(eval(r#"to_float("2.5")"#), Value::Float(2.5));
        assert_eq!(eval("to_str(12)"), Value::Str("12".into()));
        assert_eq!(eval(r#"parse_int("nope")"#), Value::Null);
        assert_eq!(eval(r#"parse_float("1.5")"#), Value::Float(1.5));
        assert!(matches!(eval_err(r#"to_int("nope")"#), ScriptError::Runtime { .. }));
    }

    #[test]
    fn list_builtins() {
        assert_eq!(eval("len(range(5))"), Value::Int(5));
        assert_eq!(eval("range(2, 4)"), Value::from(vec![Value::Int(2), Value::Int(3)]));
        assert_eq!(eval("range(4, 2)"), Value::from(vec![]));
        assert_eq!(eval("len(range(1000000))"), Value::Int(1_000_000));
        // Refused before anything is allocated, as an error the caller sees.
        for too_long in [
            "range(1000001)",
            "range(1099511627776)",
            "range(-9223372036854775807 - 1, 9223372036854775807)",
        ] {
            let e = eval_err(too_long);
            assert!(matches!(e, ScriptError::Runtime { .. }), "{too_long}: {e:?}");
            assert!(e.to_string().contains("is longer than 1000000"), "{too_long}: {e}");
        }
        assert_eq!(
            eval("sort([3, 1, 2])"),
            Value::from(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            eval(r#"sort(["b", "a"])"#),
            Value::from(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert_eq!(eval("reverse([1, 2])"), Value::from(vec![Value::Int(2), Value::Int(1)]));
        assert_eq!(eval(r#"reverse("abc")"#), Value::Str("cba".into()));
        assert_eq!(
            eval("slice([1, 2, 3, 4], 1, 3)"),
            Value::from(vec![Value::Int(2), Value::Int(3)])
        );
        assert_eq!(eval("slice([1], 5, 9)"), Value::from(vec![]));
        assert_eq!(eval("len(concat([1], [2, 3]))"), Value::Int(3));
        assert_eq!(
            eval("unique([1, 2, 1, 3, 2])"),
            Value::from(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(eval("sum([1, 2, 3])"), Value::Int(6));
        assert_eq!(eval("sum([1, 2.5])"), Value::Float(3.5));
    }

    #[test]
    fn map_builtins() {
        assert_eq!(
            eval(r#"keys({"b": 1, "a": 2})"#),
            Value::from(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert_eq!(eval(r#"values({"a": 2})"#), Value::from(vec![Value::Int(2)]));
        assert_eq!(eval(r#"has_key({"a": 1}, "a")"#), Value::Bool(true));
        assert_eq!(eval(r#"get_or({"a": 1}, "b", 9)"#), Value::Int(9));
        assert_eq!(eval(r#"get_or({"a": 1}, "a", 9)"#), Value::Int(1));
    }

    #[test]
    fn typeof_and_is_null() {
        assert_eq!(eval("typeof(1)"), Value::Str("int".into()));
        assert_eq!(eval("typeof([1])"), Value::Str("list".into()));
        assert_eq!(eval("is_null(null)"), Value::Bool(true));
        assert_eq!(eval("is_null(0)"), Value::Bool(false));
    }

    #[test]
    fn arity_and_type_errors() {
        assert!(matches!(eval_err("len()"), ScriptError::Runtime { .. }));
        assert!(matches!(eval_err("len(1)"), ScriptError::Runtime { .. }));
        assert!(matches!(eval_err("lower(1)"), ScriptError::Runtime { .. }));
        assert!(matches!(eval_err("range(1, 2, 3)"), ScriptError::Runtime { .. }));
        assert!(matches!(eval_err("mystery(1)"), ScriptError::Runtime { .. }));
    }

    #[test]
    fn unicode_len_counts_chars() {
        assert_eq!(eval(r#"len("café")"#), Value::Int(4));
        assert_eq!(eval(r#"index_of("café au lait", "au")"#), Value::Int(5));
    }
}
