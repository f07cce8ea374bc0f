//! The strict parser: trailing garbage, unpaired surrogates, raw control
//! bytes, malformed numbers and nesting deeper than [`MAX_DEPTH`] are
//! rejected instead of guessed at. It yields a [`Value`] only; there is no
//! generic deserialization.

use crate::{Error, Map, Result, Value};

/// How many arrays and objects may be open at once (the published crate's
/// limit). The parser recurses once per level and its input comes from
/// outside the program, so without a bound a long run of `[` overflows the
/// stack.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn from_slice(bytes: &[u8]) -> Result<Value> {
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after document"));
    }
    Ok(value)
}

/// [`from_slice`] over a string's bytes.
pub fn from_str(text: &str) -> Result<Value> {
    from_slice(text.as_bytes())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> Error {
        Error { at: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &'static [u8], message: &'static str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal(b"true", "expected 'true'").map(|_| Value::Bool(true)),
            Some(b'f') => self.literal(b"false", "expected 'false'").map(|_| Value::Bool(false)),
            Some(b'n') => self.literal(b"null", "expected 'null'").map(|_| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// One level down: `container` is [`Self::object`] or [`Self::array`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{', "expected '{'")?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let width = utf8_width(b).ok_or_else(|| self.err("invalid utf-8"))?;
                    let end = start + width;
                    let chunk =
                        self.bytes.get(start..end).ok_or_else(|| self.err("truncated utf-8"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require a \uXXXX low surrogate.
            self.literal(b"\\u", "unpaired surrogate")?;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.err("unpaired surrogate"));
            }
            let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..0xE000).contains(&first) {
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid codepoint"))
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
            if !f.is_finite() {
                return Err(self.err("non-finite number"));
            }
            Ok(Value::from(f))
        } else if text.starts_with('-') {
            let n: i64 = text.parse().map_err(|_| self.err("invalid number"))?;
            Ok(Value::from(n))
        } else {
            let n: u64 = text.parse().map_err(|_| self.err("invalid number"))?;
            Ok(Value::from(n))
        }
    }
}

fn utf8_width(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let text = crate::to_string(v).unwrap();
        let back = from_str(&text).unwrap();
        assert_eq!(&back, v, "roundtrip failed for {text}");
    }

    #[test]
    fn roundtrips_every_shape() {
        let mut map = Map::new();
        map.insert("neg".into(), Value::from(-42i64));
        map.insert("big".into(), Value::from(u64::MAX));
        map.insert("pi".into(), Value::from(3.25f64));
        map.insert("whole".into(), Value::from(2.0f64));
        map.insert("s".into(), Value::String("quote \" slash \\ nl \n tab \t".into()));
        map.insert("unicode".into(), Value::String("héllo 🦀 \u{0007}".into()));
        map.insert("arr".into(), Value::Array(vec![Value::Null, Value::Bool(true)]));
        map.insert("nested".into(), Value::Object(Map::new()));
        roundtrip(&Value::Object(map));
        roundtrip(&Value::Array(vec![]));
        roundtrip(&Value::Null);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\" 1}",
            b"tru",
            b"1 2",
            b"\"\\u12\"",
            b"\"\\ud800\"",
            b"nullx",
            b"{\"a\":}",
            b"\x01",
            b"",
        ] {
            assert!(from_slice(bad).is_err(), "accepted {:?}", String::from_utf8_lossy(bad));
        }
        let nested = |depth: usize| [vec![b'['; depth], vec![b']'; depth]].concat();
        assert!(from_slice(&nested(MAX_DEPTH)).is_ok(), "{MAX_DEPTH} deep parses");
        let too_deep = from_slice(&nested(MAX_DEPTH + 1)).expect_err("one deeper does not");
        assert_eq!(too_deep, Error { at: MAX_DEPTH, message: "nesting too deep" });
        // Unclosed, and far past what the stack would hold.
        assert_eq!(from_slice(&vec![b'['; 200_000]), Err(too_deep));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = from_slice(b"\"\\ud83e\\udd80\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F980}"));
    }
}
