//! Property-based differential testing: arbitrary generated programs must
//! behave identically on the tree-walking interpreter and the bytecode VM —
//! results, errors, fuel use, print output, and host-call sequences.
//!
//! Complements `vm_differential.rs` (a seeded, dependency-free corpus that
//! runs everywhere): this suite adds proptest's shrinking on top in CI.

use lingua_script::ast::*;
use lingua_script::error::Span;
use lingua_script::{compile, Host, Interpreter, ScriptError, Value, Vm};
use proptest::prelude::*;
use std::sync::Arc;

fn span() -> Span {
    Span::default()
}

/// Variable names drawn from a small pool so reads frequently hit a binding
/// (and sometimes don't — unknown-variable errors must match too).
fn var_name() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("x"), Just("y"), Just("z")].prop_map(str::to_string)
}

/// Call names covering builtins, user functions, host specials, mutating
/// forms, and unknown names.
fn call_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("len"),
        Just("join"),
        Just("sort"),
        Just("trim"),
        Just("upper"),
        Just("typeof"),
        Just("to_str"),
        Just("abs"),
        Just("keys"),
        Just("f0"),
        Just("f1"),
        Just("mystery"),
        Just("push"),
        Just("pop"),
        Just("insert"),
        Just("delete"),
        Just("print"),
        Just("call_llm"),
        Just("call_module"),
        Just("call_tool"),
    ]
    .prop_map(str::to_string)
}

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::Null(span())),
        any::<bool>().prop_map(|b| Expr::Bool(b, span())),
        (-10i64..10).prop_map(|i| Expr::Int(i, span())),
        (-16i64..16).prop_map(|q| Expr::Float(q as f64 / 4.0, span())),
        "[a-z]{0,6}".prop_map(|s| Expr::Str(s, span())),
    ]
}

fn binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn expr(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![literal(), var_name().prop_map(|n| Expr::Var(n, span()))];
    leaf.prop_recursive(depth, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(|items| Expr::List(items, span())),
            prop::collection::vec(("k[0-2]", inner.clone()), 0..3)
                .prop_map(|pairs| Expr::Map(pairs, span())),
            (binop(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Binary(
                op,
                Box::new(l),
                Box::new(r),
                span()
            )),
            (prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)], inner.clone())
                .prop_map(|(op, e)| Expr::Unary(op, Box::new(e), span())),
            (call_name(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(name, args)| Expr::Call(name, args, span())),
            (var_name(), inner.clone()).prop_map(|(v, i)| Expr::Index(
                Box::new(Expr::Var(v, span())),
                Box::new(i),
                span()
            )),
        ]
    })
}

fn stmt(depth: u32) -> BoxedStrategy<Stmt> {
    let simple = prop_oneof![
        (var_name(), expr(2)).prop_map(|(name, value)| Stmt::Let { name, value, span: span() }),
        (var_name(), expr(2)).prop_map(|(name, value)| Stmt::Assign {
            target: LValue::Var(name),
            value,
            span: span()
        }),
        (var_name(), expr(1), expr(2)).prop_map(|(name, idx, value)| Stmt::Assign {
            target: LValue::Index(name, idx),
            value,
            span: span()
        }),
        expr(2).prop_map(Stmt::Expr),
        prop::option::of(expr(2)).prop_map(|value| Stmt::Return { value, span: span() }),
        Just(Stmt::Break(span())),
        Just(Stmt::Continue(span())),
    ];
    if depth == 0 {
        return simple.boxed();
    }
    prop_oneof![
        simple,
        (
            expr(1),
            prop::collection::vec(stmt(depth - 1), 0..3),
            prop::collection::vec(stmt(depth - 1), 0..2)
        )
            .prop_map(|(cond, then_branch, else_branch)| Stmt::If {
                cond,
                then_branch,
                else_branch,
                span: span()
            }),
        (expr(1), prop::collection::vec(stmt(depth - 1), 0..3))
            .prop_map(|(cond, body)| Stmt::While { cond, body, span: span() }),
        (var_name(), expr(1), prop::collection::vec(stmt(depth - 1), 0..3))
            .prop_map(|(var, iterable, body)| Stmt::For { var, iterable, body, span: span() }),
    ]
    .boxed()
}

fn program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(stmt(2), 0..4),
        prop::collection::vec(stmt(2), 0..4),
        prop::collection::vec(stmt(3), 1..6),
    )
        .prop_map(|(b0, b1, main_tail)| {
            let mut main_body = vec![
                Stmt::Let {
                    name: "x".into(),
                    value: Expr::List(vec![Expr::Int(1, span()), Expr::Int(2, span())], span()),
                    span: span(),
                },
                Stmt::Let {
                    name: "y".into(),
                    value: Expr::Map(vec![("k0".into(), Expr::Int(3, span()))], span()),
                    span: span(),
                },
            ];
            main_body.extend(main_tail);
            Program {
                functions: vec![
                    FnDecl {
                        name: "f0".into(),
                        params: vec!["a".into(), "b".into()],
                        body: b0,
                        span: span(),
                    },
                    FnDecl { name: "f1".into(), params: vec!["a".into()], body: b1, span: span() },
                    FnDecl { name: "main".into(), params: vec![], body: main_body, span: span() },
                ],
            }
        })
}

#[derive(Default)]
struct RecordingHost {
    log: Vec<String>,
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

fn run_both(p: &Program, fuel: u64) -> Result<(), TestCaseError> {
    let mut interp = Interpreter::new(p).with_fuel(fuel).with_max_depth(16);
    let mut ihost = RecordingHost::default();
    let i: Result<Value, ScriptError> = interp.call(&mut ihost, "main", vec![]);

    let mut vm = Vm::new(Arc::new(compile(p))).with_fuel(fuel).with_max_depth(16);
    let mut vhost = RecordingHost::default();
    let v = vm.call(&mut vhost, "main", vec![]);

    prop_assert_eq!(i, v, "result divergence");
    prop_assert_eq!(interp.fuel_used(), vm.fuel_used(), "fuel divergence");
    prop_assert_eq!(&interp.output, &vm.output, "print divergence");
    prop_assert_eq!(&ihost.log, &vhost.log, "host-call divergence");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn vm_matches_interpreter_on_arbitrary_programs(p in program()) {
        run_both(&p, 5_000)?;
    }

    #[test]
    fn vm_matches_interpreter_under_tight_fuel(p in program(), fuel in 1u64..200) {
        // Starved budgets cut execution at arbitrary points; the trap point
        // and the fuel counter must still agree exactly.
        run_both(&p, fuel)?;
    }
}
