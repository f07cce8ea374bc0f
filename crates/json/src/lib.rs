//! This repo's JSON, on `std` alone. It implements the subset the workspace
//! uses: the [`Value`] tree over a sorted [`Map`], the [`json!`] macro over a
//! [`ToJson`] conversion (there is no generic serde), the two text writers
//! ([`to_string`], [`to_string_pretty`]: sorted keys, two-space indent, floats
//! always carrying a fraction or exponent) and a strict parser ([`from_str`],
//! [`from_slice`]) that yields a `Value` and nothing else. The package keeps
//! the name `serde_json` because `crates/e2e/Cargo.toml` asks for it by that
//! name and only a `[benchmark]` PR may edit that file; ROADMAP item 2 can
//! rename it, and every `serde_json::` path with it.

mod parse;

pub use parse::{from_slice, from_str};

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

pub type Map<K = String, V = Value> = BTreeMap<K, V>;

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(n) => i64::try_from(n).ok(),
            N::NegInt(n) => Some(n),
            N::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(n) => n as f64,
            N::NegInt(n) => n as f64,
            N::Float(f) => f,
        })
    }

    fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(n) => write!(out, "{n}"),
            N::NegInt(n) => write!(out, "{n}"),
            N::Float(f) => {
                let text = format!("{f:?}");
                out.write_str(&text)
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// `value["key"]` / `value[3]`, yielding `Null` when absent like the
/// published crate.
pub trait Index {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
}

impl Index for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object()?.get(self)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array()?.get(*self)
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(Number(N::PosInt(n as u64)))
            }
        }
    )*};
}
from_unsigned!(u64, usize);

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                let n = n as i64;
                Value::Number(Number(if n < 0 { N::NegInt(n) } else { N::PosInt(n as u64) }))
            }
        }
    )*};
}
from_signed!(i32, i64);

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

/// What an integer literal compares as; an integer never equals a float node.
impl PartialEq<i32> for Value {
    fn eq(&self, other: &i32) -> bool {
        self.as_i64() == Some(i64::from(*other))
    }
}

/// What `json!` interpolates: the role `Serialize` plays in the published
/// crate. Like the `From` and `PartialEq` impls above, an impl exists for a
/// type some crate in the tree puts there; the next type costs one line.
pub trait ToJson {
    fn to_json(&self) -> Value;

    /// The tree itself when `self` already is one, so the writers serialize
    /// it without a deep copy.
    fn as_tree(&self) -> Option<&Value> {
        None
    }
}

macro_rules! to_json_via_from {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::from(*self)
            }
        }
    )*};
}
to_json_via_from!(u64, usize, i32, f64, bool);

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }

    fn as_tree(&self) -> Option<&Value> {
        Some(self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }

    fn as_tree(&self) -> Option<&Value> {
        (**self).as_tree()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    value.to_json()
}

/// Why a document failed to parse, and at which byte. Writing a `Value` tree
/// cannot fail; the writers return `Result` so callers read as they would
/// against the published crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    pub at: usize,
    pub message: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "invalid json at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String> {
    Ok(render(value, None))
}

pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String> {
    Ok(render(value, Some(2)))
}

fn render<T: ToJson + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut out = String::with_capacity(256);
    match value.as_tree() {
        Some(tree) => write_value(&mut out, tree, indent, 0),
        None => write_value(&mut out, &value.to_json(), indent, 0),
    }
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape: &str = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => {
                out.push_str(&s[start..i]);
                let _ = write!(out, "\\u{byte:04x}");
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(escape);
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// `json!` — same grammar as the published macro for literals, arrays,
/// objects with literal or parenthesised keys, and interpolated expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_array!(@items [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_object!(@entries object () $($tt)+);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    (@items [$($done:expr,)*]) => { ::std::vec![$($done),*] };
    (@items [$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_array!(@items [$($done,)* $crate::json!(null),] $($($rest)*)?)
    };
    (@items [$($done:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json_array!(@items [$($done,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    (@items [$($done:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json_array!(@items [$($done,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    (@items [$($done:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::json_array!(@items [$($done,)* $crate::json!($next),] $($($rest)*)?)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    (@entries $object:ident ()) => {};
    // Key complete (a literal or a parenthesised expression), value next.
    (@entries $object:ident ($key:expr) : null $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!(null));
        $crate::json_object!(@entries $object () $($($rest)*)?);
    };
    (@entries $object:ident ($key:expr) : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!([$($inner)*]));
        $crate::json_object!(@entries $object () $($($rest)*)?);
    };
    (@entries $object:ident ($key:expr) : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!({$($inner)*}));
        $crate::json_object!(@entries $object () $($($rest)*)?);
    };
    (@entries $object:ident ($key:expr) : $value:expr $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!($value));
        $crate::json_object!(@entries $object () $($($rest)*)?);
    };
    (@entries $object:ident () $key:literal $($rest:tt)*) => {
        $crate::json_object!(@entries $object ($key) $($rest)*);
    };
    (@entries $object:ident () ($key:expr) $($rest:tt)*) => {
        $crate::json_object!(@entries $object ($key) $($rest)*);
    };
}
