//! Hand-written lexer.

use crate::error::{ScriptError, Span};
use crate::token::{Token, TokenKind};

/// Lex source text into tokens (terminated by an `Eof` token).
pub fn lex(source: &str) -> Result<Vec<Token>, ScriptError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    pos: usize,
    line: usize,
    /// 1-based character column of the next char on the current line.
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, chars: src.char_indices().collect(), pos: 0, line: 1, col: 1 }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).map(|&(_, c)| c)
    }

    fn byte_offset(&self) -> usize {
        self.chars.get(self.pos).map(|&(i, _)| i).unwrap_or(self.src.len())
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(ch) = c {
            if ch == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.pos += 1;
        }
        c
    }

    fn error(&self, start: usize, message: impl Into<String>) -> ScriptError {
        ScriptError::Lex {
            span: Span::with_col(start, self.byte_offset(), self.line, self.col),
            message: message.into(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, ScriptError> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia();
            let start = self.byte_offset();
            let line = self.line;
            let col = self.col;
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::with_col(start, start, line, col),
                });
                return Ok(tokens);
            };
            let kind = match c {
                '(' => self.single(TokenKind::LParen),
                ')' => self.single(TokenKind::RParen),
                '{' => self.single(TokenKind::LBrace),
                '}' => self.single(TokenKind::RBrace),
                '[' => self.single(TokenKind::LBracket),
                ']' => self.single(TokenKind::RBracket),
                ',' => self.single(TokenKind::Comma),
                ';' => self.single(TokenKind::Semicolon),
                ':' => self.single(TokenKind::Colon),
                '+' => self.single(TokenKind::Plus),
                '-' => self.single(TokenKind::Minus),
                '*' => self.single(TokenKind::Star),
                '/' => self.single(TokenKind::Slash),
                '%' => self.single(TokenKind::Percent),
                '=' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Eq
                    } else {
                        TokenKind::Assign
                    }
                }
                '!' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Ne
                    } else {
                        TokenKind::Bang
                    }
                }
                '<' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Le
                    } else {
                        TokenKind::Lt
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        TokenKind::Ge
                    } else {
                        TokenKind::Gt
                    }
                }
                '&' => {
                    self.bump();
                    if self.peek() == Some('&') {
                        self.bump();
                        TokenKind::AndAnd
                    } else {
                        return Err(self.error(start, "expected `&&`"));
                    }
                }
                '|' => {
                    self.bump();
                    if self.peek() == Some('|') {
                        self.bump();
                        TokenKind::OrOr
                    } else {
                        return Err(self.error(start, "expected `||`"));
                    }
                }
                '"' => self.string(start)?,
                c if c.is_ascii_digit() => self.number(start)?,
                c if c.is_alphabetic() || c == '_' => self.ident(),
                other => return Err(self.error(start, format!("unexpected character `{other}`"))),
            };
            let end = self.byte_offset();
            tokens.push(Token { kind, span: Span::with_col(start, end, line, col) });
        }
    }

    fn single(&mut self, kind: TokenKind) -> TokenKind {
        self.bump();
        kind
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                // `//` line comments and `#` line comments.
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn string(&mut self, start: usize) -> Result<TokenKind, ScriptError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error(start, "unterminated string literal")),
                Some('"') => return Ok(TokenKind::Str(out)),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some(other) => return Err(self.error(start, format!("bad escape `\\{other}`"))),
                    None => return Err(self.error(start, "unterminated escape")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self, start: usize) -> Result<TokenKind, ScriptError> {
        let mut text = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else if c == '.' && !is_float && self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                is_float = true;
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|e| self.error(start, format!("bad float: {e}")))
        } else {
            // Integer arithmetic wraps, and so does the one literal a single
            // step past `i64::MAX`: it is how `-9223372036854775808`, the
            // printer's spelling of `i64::MIN`, reads back as that constant.
            text.parse::<i64>()
                .or_else(|e| if text.parse() == Ok(1u64 << 63) { Ok(i64::MIN) } else { Err(e) })
                .map(TokenKind::Int)
                .map_err(|e| self.error(start, format!("bad integer: {e}")))
        }
    }

    fn ident(&mut self) -> TokenKind {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        TokenKind::keyword(&text).unwrap_or(TokenKind::Ident(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_function() {
        let toks = kinds("fn add(a, b) { return a + b; }");
        assert_eq!(
            toks,
            vec![
                TokenKind::Fn,
                TokenKind::Ident("add".into()),
                TokenKind::LParen,
                TokenKind::Ident("a".into()),
                TokenKind::Comma,
                TokenKind::Ident("b".into()),
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::Return,
                TokenKind::Ident("a".into()),
                TokenKind::Plus,
                TokenKind::Ident("b".into()),
                TokenKind::Semicolon,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers_int_and_float() {
        assert_eq!(kinds("42"), vec![TokenKind::Int(42), TokenKind::Eof]);
        assert_eq!(kinds("3.5"), vec![TokenKind::Float(3.5), TokenKind::Eof]);
        // `1.` is Int then error-free only if followed by non-digit: `1 .` is
        // not valid syntax later, but the lexer treats `1.x` as Int(1) + ...
        assert_eq!(kinds("1")[0], TokenKind::Int(1));
        // One past i64::MAX wraps; anything larger is still an error.
        assert_eq!(kinds("9223372036854775807")[0], TokenKind::Int(i64::MAX));
        assert_eq!(kinds("9223372036854775808")[0], TokenKind::Int(i64::MIN));
        assert!(lex("9223372036854775809").is_err());
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds(r#""he\tsaid \"hi\"\n""#)[0], TokenKind::Str("he\tsaid \"hi\"\n".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(lex("\"oops"), Err(ScriptError::Lex { .. })));
        assert!(matches!(lex(r#""bad \q escape""#), Err(ScriptError::Lex { .. })));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("// comment\nlet x = 1; # other\nx");
        assert_eq!(toks[0], TokenKind::Let);
        assert!(toks.contains(&TokenKind::Ident("x".into())));
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("== != <= >= && || ! < >"),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn single_ampersand_is_an_error() {
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
    }

    #[test]
    fn line_numbers_track() {
        let toks = lex("let a = 1;\nlet b = 2;").unwrap();
        let b_tok = toks.iter().find(|t| t.kind == TokenKind::Ident("b".into())).unwrap();
        assert_eq!(b_tok.span.line, 2);
    }

    #[test]
    fn columns_track_within_and_across_lines() {
        let toks = lex("let a = 1;\n    let bee = 22;").unwrap();
        let find = |kind: &TokenKind| toks.iter().find(|t| &t.kind == kind).unwrap().span;
        assert_eq!(find(&TokenKind::Ident("a".into())).col, 5);
        assert_eq!(find(&TokenKind::Int(1)).col, 9);
        // Second line restarts the count; indentation is counted in chars.
        let bee = find(&TokenKind::Ident("bee".into()));
        assert_eq!((bee.line, bee.col), (2, 9));
        assert_eq!(find(&TokenKind::Int(22)).col, 15);
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` is two bytes but one column.
        let toks = lex("café + x").unwrap();
        assert_eq!(toks[1].kind, TokenKind::Plus);
        assert_eq!(toks[1].span.col, 6);
    }

    #[test]
    fn unicode_identifiers() {
        // Alphabetic unicode is allowed in identifiers.
        let toks = kinds("café");
        assert_eq!(toks[0], TokenKind::Ident("café".into()));
    }

    #[test]
    fn unexpected_character() {
        assert!(matches!(lex("let x = @"), Err(ScriptError::Lex { .. })));
    }
}
