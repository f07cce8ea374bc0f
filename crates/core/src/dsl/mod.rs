//! The textual pipeline DSL ("LINGUA MANGA features a DSL to simplify the
//! workflow-building process", §3).
//!
//! ```text
//! pipeline er_demo {
//!     records = load_csv() with { path: "beers.csv" };
//!     matches = entity_resolution(records) using llm with {
//!         desc: "Determine if the two records refer to the same entity";
//!     };
//!     save_csv(matches) with { path: "out.csv" };
//! }
//! ```
//!
//! Statement shape: `[output =] op(inputs...) [using kind] [with { k: v; ... }];`
//! Values in `with` blocks are string literals, bare words, or numbers.

use crate::error::CoreError;
use crate::modules::ModuleKind;
use crate::pipeline::{LogicalOp, Pipeline};

/// Parse DSL text into a [`Pipeline`].
pub(crate) fn parse(source: &str) -> Result<Pipeline, CoreError> {
    Parser::new(source).parse_pipeline()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Assign,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semicolon,
    Colon,
    Eof,
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn new(source: &str) -> Parser {
        Parser { tokens: lex(source), pos: 0 }
    }

    fn current(&self) -> &(Tok, usize) {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> (Tok, usize) {
        let tok = self.current().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn error(&self, message: impl Into<String>) -> CoreError {
        CoreError::Dsl { line: self.current().1, message: message.into() }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), CoreError> {
        let (current, _) = self.bump();
        if current == tok {
            Ok(())
        } else {
            Err(CoreError::Dsl {
                line: self.tokens[self.pos.saturating_sub(1)].1,
                message: format!("expected {tok:?}, found {current:?}"),
            })
        }
    }

    fn ident(&mut self) -> Result<String, CoreError> {
        match self.bump() {
            (Tok::Ident(name), _) => Ok(name),
            (other, line) => Err(CoreError::Dsl {
                line,
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.current().0, Tok::Ident(id) if id == kw)
    }

    fn parse_pipeline(&mut self) -> Result<Pipeline, CoreError> {
        if !self.at_keyword("pipeline") {
            return Err(self.error("expected `pipeline <name> { ... }`"));
        }
        self.bump();
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut pipeline = Pipeline::new(name);
        while self.current().0 != Tok::RBrace {
            if self.current().0 == Tok::Eof {
                return Err(self.error("unexpected end of input inside pipeline"));
            }
            pipeline.ops.push(self.parse_statement()?);
        }
        self.expect(Tok::RBrace)?;
        if self.current().0 != Tok::Eof {
            return Err(self.error("trailing input after pipeline block"));
        }
        Ok(pipeline)
    }

    fn parse_statement(&mut self) -> Result<LogicalOp, CoreError> {
        let first = self.ident()?;
        let (output, op_type) = if self.current().0 == Tok::Assign {
            self.bump();
            (first, self.ident()?)
        } else {
            (String::new(), first)
        };
        self.expect(Tok::LParen)?;
        let mut inputs = Vec::new();
        while self.current().0 != Tok::RParen {
            inputs.push(self.ident()?);
            if self.current().0 == Tok::Comma {
                self.bump();
            }
        }
        self.expect(Tok::RParen)?;

        let mut op = LogicalOp::new(op_type).output(output);
        op.inputs = inputs;

        if self.at_keyword("using") {
            self.bump();
            let kind_name = self.ident()?;
            let kind = ModuleKind::parse(&kind_name)
                .ok_or_else(|| self.error(format!("unknown module kind `{kind_name}`")))?;
            op.kind = Some(kind);
        }

        if self.at_keyword("with") {
            self.bump();
            self.expect(Tok::LBrace)?;
            while self.current().0 != Tok::RBrace {
                let key = self.ident()?;
                self.expect(Tok::Colon)?;
                let value = match self.bump() {
                    (Tok::Str(s), _) => s,
                    (Tok::Ident(id), _) => id,
                    (other, line) => {
                        return Err(CoreError::Dsl {
                            line,
                            message: format!("expected a parameter value, found {other:?}"),
                        })
                    }
                };
                op.params.insert(key, value);
                if matches!(self.current().0, Tok::Semicolon | Tok::Comma) {
                    self.bump();
                }
            }
            self.expect(Tok::RBrace)?;
        }
        self.expect(Tok::Semicolon)?;
        Ok(op)
    }
}

fn lex(source: &str) -> Vec<(Tok, usize)> {
    let mut tokens = Vec::new();
    let mut chars = source.char_indices().peekable();
    let mut line = 1usize;
    while let Some(&(_, c)) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '=' => {
                chars.next();
                tokens.push((Tok::Assign, line));
            }
            '(' => {
                chars.next();
                tokens.push((Tok::LParen, line));
            }
            ')' => {
                chars.next();
                tokens.push((Tok::RParen, line));
            }
            '{' => {
                chars.next();
                tokens.push((Tok::LBrace, line));
            }
            '}' => {
                chars.next();
                tokens.push((Tok::RBrace, line));
            }
            ',' => {
                chars.next();
                tokens.push((Tok::Comma, line));
            }
            ';' => {
                chars.next();
                tokens.push((Tok::Semicolon, line));
            }
            ':' => {
                chars.next();
                tokens.push((Tok::Colon, line));
            }
            '"' => {
                chars.next();
                let mut out = String::new();
                let mut closed = false;
                while let Some((_, c)) = chars.next() {
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => {
                            if let Some((_, escaped)) = chars.next() {
                                out.push(match escaped {
                                    'n' => '\n',
                                    't' => '\t',
                                    other => other,
                                });
                            }
                        }
                        '\n' => {
                            line += 1;
                            out.push(c);
                        }
                        _ => out.push(c),
                    }
                }
                // Unclosed strings surface as a parse error downstream (the
                // token still carries the content read so far).
                let _ = closed;
                tokens.push((Tok::Str(out), line));
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' || c == '-' || c == '/' => {
                let mut word = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '.' || c == '-' || c == '/' {
                        word.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push((Tok::Ident(word), line));
            }
            _ => {
                // Skip unknown characters; the parser will complain about the
                // resulting token mismatch with a line number.
                chars.next();
            }
        }
    }
    tokens.push((Tok::Eof, line));
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
        # The Figure-2a custom entity-resolution workflow.
        pipeline er_demo {
            records = load_csv() with { path: "beers.csv" };
            matches = entity_resolution(records) using llm with {
                desc: "Determine if the two records refer to the same entity";
                examples: "2";
            };
            save_csv(matches) with { path: "out.csv" };
        }
    "#;

    #[test]
    fn parses_the_demo_pipeline() {
        let p = parse(DEMO).unwrap();
        assert_eq!(p.name, "er_demo");
        assert_eq!(p.ops.len(), 3);
        assert_eq!(p.ops[0].output, "records");
        assert_eq!(p.ops[0].params.get("path").unwrap(), "beers.csv");
        assert_eq!(p.ops[1].kind, Some(ModuleKind::Llm));
        assert_eq!(p.ops[1].inputs, vec!["records"]);
        assert!(p.ops[1].description().unwrap().contains("same entity"));
        assert_eq!(p.ops[2].output, "");
        p.check_dataflow(&[]).unwrap();
    }

    #[test]
    fn multiple_inputs_and_bare_values() {
        let p =
            parse("pipeline multi { joined = join(a, b) with { on: id; how: inner }; }").unwrap();
        assert_eq!(p.ops[0].inputs, vec!["a", "b"]);
        assert_eq!(p.ops[0].params.get("on").unwrap(), "id");
        assert_eq!(p.ops[0].params.get("how").unwrap(), "inner");
    }

    #[test]
    fn comments_and_commas_in_with_blocks() {
        let p = parse("pipeline c { # comment\n x = op() with { a: \"1\", b: \"2\" }; }").unwrap();
        assert_eq!(p.ops[0].params.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("pipeline p {\n x = (;\n}").unwrap_err();
        match err {
            CoreError::Dsl { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("not_a_pipeline {}").is_err());
        assert!(parse("pipeline p { x = op() }").is_err()); // missing semicolon
        assert!(parse("pipeline p { x = op() using alien; }").is_err());
        assert!(parse("pipeline p {").is_err());
    }

    #[test]
    fn roundtrip_through_pretty() {
        let p = parse(DEMO).unwrap();
        let pretty = p.pretty();
        let reparsed = parse(&pretty).unwrap();
        assert_eq!(reparsed, p);
    }

    #[test]
    fn escaped_strings() {
        let p = parse(r#"pipeline e { x = op() with { d: "line\nbreak \"q\"" }; }"#).unwrap();
        assert_eq!(p.ops[0].params.get("d").unwrap(), "line\nbreak \"q\"");
    }
}
