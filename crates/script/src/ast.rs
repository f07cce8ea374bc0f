//! Abstract syntax tree.
//!
//! The AST is public and mutable on purpose: the simulated LLM's code
//! generator builds programs as ASTs, and its bug-injection model mutates
//! them before pretty-printing — see `lingua-llm-sim::codegen`.

use crate::error::Span;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding power (higher binds tighter).
    pub(crate) fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 6,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Null(Span),
    Bool(bool, Span),
    Int(i64, Span),
    Float(f64, Span),
    Str(String, Span),
    Var(String, Span),
    List(Vec<Expr>, Span),
    /// Map literal: ordered `(key, value)` pairs with string keys.
    Map(Vec<(String, Expr)>, Span),
    Unary(UnOp, Box<Expr>, Span),
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Function or builtin call by name.
    Call(String, Vec<Expr>, Span),
    /// Indexing: `base[index]` over lists (int) and maps (str).
    Index(Box<Expr>, Box<Expr>, Span),
}

impl Expr {
    pub fn span(&self) -> Span {
        match self {
            Expr::Null(s)
            | Expr::Bool(_, s)
            | Expr::Int(_, s)
            | Expr::Float(_, s)
            | Expr::Str(_, s)
            | Expr::Var(_, s)
            | Expr::List(_, s)
            | Expr::Map(_, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Call(_, _, s)
            | Expr::Index(_, _, s) => *s,
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// `x = ...`
    Var(String),
    /// `x[i] = ...` (one level of indexing on a variable).
    Index(String, Expr),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = expr;`
    Let {
        name: String,
        value: Expr,
        span: Span,
    },
    /// `target = expr;`
    Assign {
        target: LValue,
        value: Expr,
        span: Span,
    },
    /// Bare expression (usually a call) followed by `;`.
    Expr(Expr),
    /// `if cond { ... } else { ... }` — `else_branch` may itself contain a
    /// single `If` statement to model `else if` chains.
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
        span: Span,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `for name in iterable { ... }` — iterates lists, maps (keys), and
    /// strings (chars).
    For {
        var: String,
        iterable: Expr,
        body: Vec<Stmt>,
        span: Span,
    },
    Return {
        value: Option<Expr>,
        span: Span,
    },
    Break(Span),
    Continue(Span),
}

impl Stmt {
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Return { span, .. } => *span,
            Stmt::Expr(e) => e.span(),
            Stmt::Break(s) | Stmt::Continue(s) => *s,
        }
    }
}

/// A function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDecl {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    pub span: Span,
}

/// A whole program: a list of function declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub functions: Vec<FnDecl>,
}

impl Program {
    pub(crate) fn function(&self, name: &str) -> Option<&FnDecl> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// A copy with every span reset to [`Span::default`], so two programs can
    /// be compared structurally — e.g. `parse(pretty(ast)) == ast` holds even
    /// though printing moves everything to fresh source positions.
    pub fn strip_spans(&self) -> Program {
        Program {
            functions: self
                .functions
                .iter()
                .map(|f| FnDecl {
                    name: f.name.clone(),
                    params: f.params.clone(),
                    body: f.body.iter().map(strip_stmt).collect(),
                    span: Span::default(),
                })
                .collect(),
        }
    }
}

fn strip_stmt(stmt: &Stmt) -> Stmt {
    let s = Span::default();
    match stmt {
        Stmt::Let { name, value, .. } => {
            Stmt::Let { name: name.clone(), value: strip_expr(value), span: s }
        }
        Stmt::Assign { target, value, .. } => {
            let target = match target {
                LValue::Var(n) => LValue::Var(n.clone()),
                LValue::Index(n, idx) => LValue::Index(n.clone(), strip_expr(idx)),
            };
            Stmt::Assign { target, value: strip_expr(value), span: s }
        }
        Stmt::Expr(e) => Stmt::Expr(strip_expr(e)),
        Stmt::If { cond, then_branch, else_branch, .. } => Stmt::If {
            cond: strip_expr(cond),
            then_branch: then_branch.iter().map(strip_stmt).collect(),
            else_branch: else_branch.iter().map(strip_stmt).collect(),
            span: s,
        },
        Stmt::While { cond, body, .. } => Stmt::While {
            cond: strip_expr(cond),
            body: body.iter().map(strip_stmt).collect(),
            span: s,
        },
        Stmt::For { var, iterable, body, .. } => Stmt::For {
            var: var.clone(),
            iterable: strip_expr(iterable),
            body: body.iter().map(strip_stmt).collect(),
            span: s,
        },
        Stmt::Return { value, .. } => {
            Stmt::Return { value: value.as_ref().map(strip_expr), span: s }
        }
        Stmt::Break(_) => Stmt::Break(s),
        Stmt::Continue(_) => Stmt::Continue(s),
    }
}

fn strip_expr(expr: &Expr) -> Expr {
    let s = Span::default();
    match expr {
        Expr::Null(_) => Expr::Null(s),
        Expr::Bool(v, _) => Expr::Bool(*v, s),
        Expr::Int(v, _) => Expr::Int(*v, s),
        Expr::Float(v, _) => Expr::Float(*v, s),
        Expr::Str(v, _) => Expr::Str(v.clone(), s),
        Expr::Var(v, _) => Expr::Var(v.clone(), s),
        Expr::List(items, _) => Expr::List(items.iter().map(strip_expr).collect(), s),
        Expr::Map(pairs, _) => {
            Expr::Map(pairs.iter().map(|(k, v)| (k.clone(), strip_expr(v))).collect(), s)
        }
        Expr::Unary(op, inner, _) => Expr::Unary(*op, Box::new(strip_expr(inner)), s),
        Expr::Binary(op, l, r, _) => {
            Expr::Binary(*op, Box::new(strip_expr(l)), Box::new(strip_expr(r)), s)
        }
        Expr::Call(name, args, _) => {
            Expr::Call(name.clone(), args.iter().map(strip_expr).collect(), s)
        }
        Expr::Index(base, idx, _) => {
            Expr::Index(Box::new(strip_expr(base)), Box::new(strip_expr(idx)), s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn program_function_lookup() {
        let f = FnDecl { name: "main".into(), params: vec![], body: vec![], span: Span::default() };
        let p = Program { functions: vec![f] };
        assert!(p.function("main").is_some());
        assert!(p.function("other").is_none());
    }
}
