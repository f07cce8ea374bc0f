//! The one MangaScript program generator, shared by every suite that needs
//! arbitrary programs (`vm_differential`, `prop_vm_diff`, `prop_roundtrip`),
//! and the interpreter-vs-VM comparison the two differential suites run.
//!
//! Names are drawn mostly from small pools, so reads often hit a binding and
//! calls often reach a builtin, a host special or a user function — and
//! sometimes from arbitrary identifiers, so unknown-name errors and the
//! printer's handling of any legal name are covered by the same programs.

#![allow(dead_code)] // each test binary uses its own part of this module

use lingua_ml::check::{Gen, LOWER, PRINTABLE};
use lingua_script::ast::*;
use lingua_script::error::Span;
use lingua_script::{compile, pretty, Host, Interpreter, ScriptError, Value, Vm};
use std::sync::Arc;

const VARS: &[&str] = &["a", "b", "x", "y", "z"];
const KEYS: &[&str] = &["k0", "k1", "k2"];
// A mix of real builtins, host specials, mutating forms, user functions,
// and names that resolve to nothing — unknown-function errors must match.
const CALLS: &[&str] = &[
    "len",
    "join",
    "sort",
    "trim",
    "upper",
    "typeof",
    "to_str",
    "abs",
    "keys",
    "contains",
    "split",
    "f0",
    "f1",
    "mystery",
    "push",
    "pop",
    "insert",
    "delete",
    "print",
    "call_llm",
    "call_module",
    "call_tool",
];
const BINOPS: &[BinOp] = &[
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

fn sp() -> Span {
    Span::default()
}

/// `[a-z][a-z0-9_]{0,6}`, never a keyword or a mutating special form.
pub fn ident(g: &mut Gen) -> String {
    loop {
        let name =
            g.string(LOWER, 1..=1) + &g.string("abcdefghijklmnopqrstuvwxyz0123456789_", 0..=6);
        let reserved = matches!(
            name.as_str(),
            "fn" | "let"
                | "if"
                | "else"
                | "while"
                | "for"
                | "in"
                | "return"
                | "break"
                | "continue"
                | "true"
                | "false"
                | "null"
                | "push"
                | "pop"
                | "insert"
                | "delete"
        );
        if !reserved {
            return name;
        }
    }
}

/// A name from `pool` four times in five, otherwise an arbitrary identifier.
fn name(g: &mut Gen, pool: &[&str]) -> String {
    if g.weighted(&[4, 1]) == 0 {
        g.pick(pool).to_string()
    } else {
        ident(g)
    }
}

fn map_key(g: &mut Gen) -> String {
    if g.weighted(&[4, 1]) == 0 {
        g.pick(KEYS).to_string()
    } else {
        g.string(LOWER, 1..=4)
    }
}

/// Small values that collide with each other and with list lengths; a wider
/// band; and the edges, where negation, `abs` and indexing can overflow.
fn int(g: &mut Gen) -> i64 {
    match g.weighted(&[3, 1, 1]) {
        0 => g.int(-10..10),
        1 => g.int(-1000..1000),
        _ => *g.pick(&[i64::MIN, -1, 0, 1, i64::MAX]),
    }
}

fn leaf(g: &mut Gen) -> Expr {
    match g.int(0..6) {
        0 => Expr::Null(sp()),
        1 => Expr::Bool(g.bool(), sp()),
        2 => Expr::Int(int(g), sp()),
        3 => {
            // Multiples of 1/8 print and parse back exactly.
            let (bound, step) = if g.bool() { (4.0, 0.25) } else { (100.0, 0.125) };
            Expr::Float(g.grid(-bound, bound, step), sp())
        }
        4 => {
            let text =
                if g.bool() { format!("s{}", g.int(0..4)) } else { g.string(PRINTABLE, 0..=12) };
            Expr::Str(text, sp())
        }
        _ => Expr::Var(name(g, VARS), sp()),
    }
}

pub fn expr(g: &mut Gen, depth: u32) -> Expr {
    if depth == 0 || !g.descend() {
        return leaf(g);
    }
    let sub = |g: &mut Gen| expr(g, depth - 1);
    match g.int(0..12) {
        0..=5 => leaf(g),
        6 => Expr::List(g.vec(0..=2, sub), sp()),
        7 => Expr::Map(g.vec(0..=2, |g| (map_key(g), sub(g))), sp()),
        8 => Expr::Binary(*g.pick(BINOPS), Box::new(sub(g)), Box::new(sub(g)), sp()),
        9 => Expr::Unary(*g.pick(&[UnOp::Neg, UnOp::Not]), Box::new(sub(g)), sp()),
        10 => {
            let name = name(g, CALLS);
            let argc = g.int(0..=3usize);
            let mut args: Vec<Expr> = Vec::new();
            // Mutating forms want an lvalue-ish first argument most of the
            // time so the happy paths get real coverage, not just the
            // "target must be a variable" error.
            if matches!(name.as_str(), "push" | "pop" | "insert" | "delete") && g.int(0..4) > 0 {
                args.push(match g.int(0..3) {
                    0 => Expr::Var(g.pick(VARS).to_string(), sp()),
                    1 => Expr::Index(
                        Box::new(Expr::Var(g.pick(VARS).to_string(), sp())),
                        Box::new(leaf(g)),
                        sp(),
                    ),
                    _ => sub(g),
                });
            }
            while args.len() < argc {
                args.push(sub(g));
            }
            Expr::Call(name, args, sp())
        }
        _ => {
            let base = if g.bool() { Expr::Var(name(g, VARS), sp()) } else { sub(g) };
            Expr::Index(Box::new(base), Box::new(sub(g)), sp())
        }
    }
}

fn stmt(g: &mut Gen, depth: u32) -> Stmt {
    let compound = depth > 0 && g.descend();
    match g.int(0..if compound { 10 } else { 7 }) {
        0 => Stmt::Let { name: name(g, VARS), value: expr(g, 2), span: sp() },
        1 => Stmt::Assign { target: LValue::Var(name(g, VARS)), value: expr(g, 2), span: sp() },
        2 => Stmt::Assign {
            target: LValue::Index(name(g, VARS), expr(g, 1)),
            value: expr(g, 2),
            span: sp(),
        },
        3 => Stmt::Expr(expr(g, 2)),
        4 => Stmt::Return { value: g.option(|g| expr(g, 2)), span: sp() },
        5 => Stmt::Break(sp()),
        6 => Stmt::Continue(sp()),
        7 => Stmt::If {
            cond: expr(g, 1),
            then_branch: block(g, depth - 1),
            else_branch: if g.bool() { block(g, depth - 1) } else { vec![] },
            span: sp(),
        },
        8 => Stmt::While { cond: expr(g, 1), body: block(g, depth - 1), span: sp() },
        _ => Stmt::For {
            var: name(g, VARS),
            iterable: expr(g, 1),
            body: block(g, depth - 1),
            span: sp(),
        },
    }
}

fn block(g: &mut Gen, depth: u32) -> Vec<Stmt> {
    g.vec(0..=3, |g| stmt(g, depth))
}

/// `f0(a, b)`, `f1(a)`, up to two functions with arbitrary names and
/// parameter lists, and a `main()` that binds `x` and `y` first — to a list
/// and a map half of the time, so indexing and mutation often succeed.
pub fn program(g: &mut Gen) -> Program {
    let function =
        |name: String, params: Vec<String>, body| FnDecl { name, params, body, span: sp() };
    let mut functions = vec![
        function("f0".into(), vec!["a".into(), "b".into()], block(g, 2)),
        function("f1".into(), vec!["a".into()], block(g, 2)),
    ];
    for i in 0..g.int(0..=2) {
        let mut params = g.vec(0..=2, ident);
        params.dedup();
        let body = g.vec(0..=4, |g| stmt(g, 2));
        functions.push(function(format!("{}_{i}", ident(g)), params, body));
    }
    let (x, y) = if g.bool() {
        (
            Expr::List(vec![Expr::Int(1, sp()), Expr::Int(2, sp())], sp()),
            Expr::Map(vec![("k0".into(), Expr::Int(3, sp()))], sp()),
        )
    } else {
        (expr(g, 2), expr(g, 2))
    };
    let mut body = vec![
        Stmt::Let { name: "x".into(), value: x, span: sp() },
        Stmt::Let { name: "y".into(), value: y, span: sp() },
    ];
    body.extend(g.vec(1..=5, |g| stmt(g, 3)));
    functions.push(function("main".into(), vec![], body));
    Program { functions }
}

/// Deterministic host that logs every call it receives.
#[derive(Default)]
pub struct RecordingHost {
    pub log: Vec<String>,
}

impl Host for RecordingHost {
    fn call_llm(&mut self, prompt: &str) -> Result<String, String> {
        self.log.push(format!("llm:{prompt}"));
        if prompt.len() % 7 == 3 {
            Err(format!("llm refused `{prompt}`"))
        } else {
            Ok(format!("L<{prompt}>"))
        }
    }

    fn call_module(&mut self, name: &str, input: Value) -> Result<Value, String> {
        self.log.push(format!("module:{name}:{input}"));
        Ok(Value::from(format!("M<{name}:{input}>")))
    }

    fn call_tool(&mut self, name: &str, args: &[Value]) -> Result<Value, String> {
        self.log.push(format!("tool:{name}:{}", args.len()));
        Ok(Value::Int(args.len() as i64))
    }
}

/// Run one program through both engines and require full observational
/// equality. Returns the interpreter outcome for corpus statistics.
pub fn assert_equivalent(program: &Program, fuel: u64, label: &str) -> Result<Value, ScriptError> {
    let mut interp = Interpreter::new(program).with_fuel(fuel).with_max_depth(16);
    let mut ihost = RecordingHost::default();
    let i = interp.call(&mut ihost, "main", vec![]);

    let compiled = Arc::new(compile(program));
    let mut vm = Vm::new(compiled).with_fuel(fuel).with_max_depth(16);
    let mut vhost = RecordingHost::default();
    let v = vm.call(&mut vhost, "main", vec![]);

    assert_eq!(i, v, "{label}: result divergence\n{}", pretty::program(program));
    assert_eq!(
        interp.fuel_used(),
        vm.fuel_used(),
        "{label}: fuel divergence\n{}",
        pretty::program(program)
    );
    assert_eq!(interp.output, vm.output, "{label}: print divergence\n{}", pretty::program(program));
    assert_eq!(ihost.log, vhost.log, "{label}: host-call divergence\n{}", pretty::program(program));
    i
}
