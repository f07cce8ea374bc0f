//! Recursive-descent parser with precedence-climbing expressions.

use crate::ast::*;
use crate::error::{ScriptError, Span};
use crate::token::{Token, TokenKind};

/// Parse a token stream (from [`crate::lexer::lex`]) into a [`Program`].
pub(crate) fn parse_tokens(tokens: &[Token]) -> Result<Program, ScriptError> {
    let mut parser = Parser { tokens, pos: 0 };
    let mut functions = Vec::new();
    while !parser.at(&TokenKind::Eof) {
        functions.push(parser.fn_decl()?);
    }
    Ok(Program { functions })
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn current(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.current().kind == kind
    }

    fn bump(&mut self) -> Token {
        let tok = self.current().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ScriptError> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected {kind:?}, found {:?}", self.current().kind)))
        }
    }

    fn error(&self, message: impl Into<String>) -> ScriptError {
        ScriptError::Parse { span: self.current().span, message: message.into() }
    }

    fn ident(&mut self) -> Result<(String, Span), ScriptError> {
        match self.bump() {
            Token { kind: TokenKind::Ident(name), span } => Ok((name, span)),
            tok => Err(ScriptError::Parse {
                span: tok.span,
                message: format!("expected identifier, found {:?}", tok.kind),
            }),
        }
    }

    // -- declarations -------------------------------------------------------

    fn fn_decl(&mut self) -> Result<FnDecl, ScriptError> {
        let start = self.expect(TokenKind::Fn)?.span;
        let (name, _) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.ident()?.0);
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(FnDecl { name, params, body, span: start.merge(end) })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.statement()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    // -- statements ---------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, ScriptError> {
        match &self.current().kind {
            TokenKind::Let => self.let_stmt(),
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Return => self.return_stmt(),
            TokenKind::Break => {
                let span = self.bump().span;
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::Continue => {
                let span = self.bump().span;
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Continue(span))
            }
            _ => self.expr_or_assign_stmt(),
        }
    }

    fn let_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let start = self.bump().span; // let
        let (name, _) = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let value = self.expression()?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(Stmt::Let { name, value, span: start.merge(end) })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let start = self.bump().span; // if
        let cond = self.expression()?;
        let then_branch = self.block()?;
        let mut else_branch = Vec::new();
        if self.at(&TokenKind::Else) {
            self.bump();
            if self.at(&TokenKind::If) {
                // `else if ...` — nest a single If statement.
                else_branch.push(self.if_stmt()?);
            } else {
                else_branch = self.block()?;
            }
        }
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Stmt::If { cond, then_branch, else_branch, span: start.merge(end) })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let start = self.bump().span;
        let cond = self.expression()?;
        let body = self.block()?;
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Stmt::While { cond, body, span: start.merge(end) })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let start = self.bump().span;
        let (var, _) = self.ident()?;
        self.expect(TokenKind::In)?;
        let iterable = self.expression()?;
        let body = self.block()?;
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Stmt::For { var, iterable, body, span: start.merge(end) })
    }

    fn return_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let start = self.bump().span;
        let value = if self.at(&TokenKind::Semicolon) { None } else { Some(self.expression()?) };
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(Stmt::Return { value, span: start.merge(end) })
    }

    /// Either `target = expr;` or a bare expression statement.
    fn expr_or_assign_stmt(&mut self) -> Result<Stmt, ScriptError> {
        let expr = self.expression()?;
        if self.at(&TokenKind::Assign) {
            self.bump();
            let value = self.expression()?;
            let end = self.expect(TokenKind::Semicolon)?.span;
            let span = expr.span().merge(end);
            let target = match expr {
                Expr::Var(name, _) => LValue::Var(name),
                Expr::Index(base, index, _) => match *base {
                    Expr::Var(name, _) => LValue::Index(name, *index),
                    _ => {
                        return Err(ScriptError::Parse {
                            span,
                            message: "only `name[...]` can be assigned".into(),
                        })
                    }
                },
                _ => {
                    return Err(ScriptError::Parse {
                        span,
                        message: "invalid assignment target".into(),
                    })
                }
            };
            Ok(Stmt::Assign { target, value, span })
        } else {
            self.expect(TokenKind::Semicolon)?;
            Ok(Stmt::Expr(expr))
        }
    }

    // -- expressions ---------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, ScriptError> {
        self.binary_expr(0)
    }

    fn peek_binop(&self) -> Option<BinOp> {
        Some(match self.current().kind {
            TokenKind::Plus => BinOp::Add,
            TokenKind::Minus => BinOp::Sub,
            TokenKind::Star => BinOp::Mul,
            TokenKind::Slash => BinOp::Div,
            TokenKind::Percent => BinOp::Rem,
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::AndAnd => BinOp::And,
            TokenKind::OrOr => BinOp::Or,
            _ => return None,
        })
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ScriptError> {
        let mut left = self.unary_expr()?;
        while let Some(op) = self.peek_binop() {
            if op.precedence() < min_prec {
                break;
            }
            self.bump();
            let right = self.binary_expr(op.precedence() + 1)?;
            let span = left.span().merge(right.span());
            left = Expr::Binary(op, Box::new(left), Box::new(right), span);
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ScriptError> {
        match self.current().kind {
            TokenKind::Minus => {
                let start = self.bump().span;
                let inner = self.unary_expr()?;
                let span = start.merge(inner.span());
                // Fold a negated numeric literal into the literal: `-5` is
                // the constant -5, not a negation of 5. The printer emits
                // negative constants as `-5`, so this keeps
                // `parse(pretty(ast)) == ast` for them.
                Ok(match inner {
                    Expr::Int(v, _) => Expr::Int(v.wrapping_neg(), span),
                    Expr::Float(v, _) => Expr::Float(-v, span),
                    other => Expr::Unary(UnOp::Neg, Box::new(other), span),
                })
            }
            TokenKind::Bang => {
                let start = self.bump().span;
                let inner = self.unary_expr()?;
                let span = start.merge(inner.span());
                Ok(Expr::Unary(UnOp::Not, Box::new(inner), span))
            }
            _ => self.postfix_expr(),
        }
    }

    /// Primary expression followed by any number of `[index]` suffixes.
    fn postfix_expr(&mut self) -> Result<Expr, ScriptError> {
        let mut expr = self.primary_expr()?;
        while self.at(&TokenKind::LBracket) {
            self.bump();
            let index = self.expression()?;
            let end = self.expect(TokenKind::RBracket)?.span;
            let span = expr.span().merge(end);
            expr = Expr::Index(Box::new(expr), Box::new(index), span);
        }
        Ok(expr)
    }

    fn primary_expr(&mut self) -> Result<Expr, ScriptError> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::Null => Ok(Expr::Null(tok.span)),
            TokenKind::True => Ok(Expr::Bool(true, tok.span)),
            TokenKind::False => Ok(Expr::Bool(false, tok.span)),
            TokenKind::Int(v) => Ok(Expr::Int(v, tok.span)),
            TokenKind::Float(v) => Ok(Expr::Float(v, tok.span)),
            TokenKind::Str(s) => Ok(Expr::Str(s, tok.span)),
            TokenKind::Ident(name) => {
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expression()?);
                            if self.at(&TokenKind::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    Ok(Expr::Call(name, args, tok.span.merge(end)))
                } else {
                    Ok(Expr::Var(name, tok.span))
                }
            }
            TokenKind::LParen => {
                let inner = self.expression()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::LBracket => {
                let mut items = Vec::new();
                if !self.at(&TokenKind::RBracket) {
                    loop {
                        items.push(self.expression()?);
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RBracket)?.span;
                Ok(Expr::List(items, tok.span.merge(end)))
            }
            TokenKind::LBrace => {
                let mut pairs = Vec::new();
                if !self.at(&TokenKind::RBrace) {
                    loop {
                        let key = match self.bump() {
                            Token { kind: TokenKind::Str(s), .. } => s,
                            Token { kind: TokenKind::Ident(s), .. } => s,
                            other => {
                                return Err(ScriptError::Parse {
                                    span: other.span,
                                    message: "map keys must be strings or identifiers".into(),
                                })
                            }
                        };
                        self.expect(TokenKind::Colon)?;
                        pairs.push((key, self.expression()?));
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                let end = self.expect(TokenKind::RBrace)?.span;
                Ok(Expr::Map(pairs, tok.span.merge(end)))
            }
            other => Err(ScriptError::Parse {
                span: tok.span,
                message: format!("unexpected token {other:?} in expression"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn parses_a_simple_function() {
        let p = parse("fn main() { return 1 + 2 * 3; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "main");
        assert!(f.params.is_empty());
        // Precedence: 1 + (2 * 3)
        match &f.body[0] {
            Stmt::Return { value: Some(Expr::Binary(BinOp::Add, _, right, _)), .. } => {
                assert!(matches!(**right, Expr::Binary(BinOp::Mul, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_all_statement_kinds() {
        let src = r#"
            fn demo(items) {
                let total = 0;
                let m = {"a": 1, b: 2};
                for item in items {
                    if item > 10 {
                        total = total + item;
                    } else if item < 0 {
                        continue;
                    } else {
                        break;
                    }
                }
                while total > 100 {
                    total = total - 1;
                }
                m["c"] = 3;
                print(total);
                return total;
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.functions[0].body.len(), 7);
    }

    #[test]
    fn else_if_nests() {
        let p = parse(
            "fn f(x) { if x > 1 { return 1; } else if x > 0 { return 0; } else { return -1; } }",
        )
        .unwrap();
        match &p.functions[0].body[0] {
            Stmt::If { else_branch, .. } => {
                assert_eq!(else_branch.len(), 1);
                assert!(matches!(else_branch[0], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn index_chains_and_assignment() {
        let p = parse("fn f(m) { let x = m[\"k\"][0]; m[\"k\"] = [1]; return x; }").unwrap();
        match &p.functions[0].body[1] {
            Stmt::Assign { target: LValue::Index(name, _), .. } => assert_eq!(name, "m"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_assignment_targets() {
        assert!(parse("fn f() { 1 = 2; }").is_err());
        assert!(parse("fn f(m) { m[\"a\"][0] = 1; }").is_err()); // only one index level
        assert!(parse("fn f() { f() = 2; }").is_err());
    }

    #[test]
    fn rejects_unclosed_constructs() {
        assert!(parse("fn f() {").is_err());
        assert!(parse("fn f( { }").is_err());
        assert!(parse("fn f() { let x = ; }").is_err());
        assert!(parse("fn f() { return [1, 2; }").is_err());
    }

    #[test]
    fn logical_operators_have_lowest_precedence() {
        let p = parse("fn f(a, b) { return a > 1 && b < 2 || a == b; }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return { value: Some(Expr::Binary(BinOp::Or, left, _, _)), .. } => {
                assert!(matches!(**left, Expr::Binary(BinOp::And, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_operators() {
        let p = parse("fn f(x) { return -x + !false; }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return { value: Some(Expr::Binary(BinOp::Add, left, right, _)), .. } => {
                assert!(matches!(**left, Expr::Unary(UnOp::Neg, _, _)));
                assert!(matches!(**right, Expr::Unary(UnOp::Not, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negated_literals_fold_into_constants() {
        let p = parse("fn f(x) { return -5 + -2.5 - -x; }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return { value: Some(Expr::Binary(BinOp::Sub, left, right, _)), .. } => {
                match &**left {
                    Expr::Binary(BinOp::Add, l, r, _) => {
                        assert!(matches!(**l, Expr::Int(-5, _)));
                        assert!(matches!(**r, Expr::Float(f, _) if f == -2.5));
                    }
                    other => panic!("unexpected {other:?}"),
                }
                // Negation of a non-literal stays a unary expression.
                assert!(matches!(**right, Expr::Unary(UnOp::Neg, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = parse("fn f() {\n    let x = ;\n}").unwrap_err();
        assert!(err.to_string().contains("line 2, col 13"), "{err}");
    }

    #[test]
    fn multiple_functions() {
        let p = parse("fn a() { return 1; } fn b() { return a(); }").unwrap();
        assert_eq!(p.functions.len(), 2);
        assert!(p.function("a").is_some());
        assert!(p.function("b").is_some());
    }

    #[test]
    fn empty_collections() {
        let p = parse("fn f() { let a = []; let b = {}; return a; }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::Let { value: Expr::List(items, _), .. } => assert!(items.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
