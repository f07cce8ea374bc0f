//! Seeded differential testing: the bytecode VM must be observationally
//! identical to the tree-walking interpreter — same results, same errors
//! (including spans), same fuel consumption to the tick, same print output,
//! and the same host-call sequence.
//!
//! This suite uses its own small PRNG and AST generator so it runs
//! everywhere deterministically; `proptest_vm_diff.rs` layers shrinking
//! property tests over the same invariant in CI.

use lingua_script::ast::*;
use lingua_script::error::Span;
use lingua_script::{compile, parse, pretty, Host, Interpreter, ScriptError, Value, Vm};
use std::sync::Arc;

/// SplitMix64: tiny, seedable, and good enough to drive a program generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

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

fn sp() -> Span {
    Span::default()
}

fn gen_expr(r: &mut Rng, depth: u32) -> Expr {
    let leaf_only = depth == 0;
    match if leaf_only { r.below(6) } else { r.below(12) } {
        0 => Expr::Null(sp()),
        1 => Expr::Bool(r.below(2) == 0, sp()),
        2 => Expr::Int(r.below(21) as i64 - 10, sp()),
        3 => Expr::Float((r.below(33) as f64 - 16.0) / 4.0, sp()),
        4 => Expr::Str(format!("s{}", r.below(4)), sp()),
        5 => Expr::Var(r.pick(VARS).to_string(), sp()),
        6 => {
            let n = r.below(3);
            Expr::List((0..n).map(|_| gen_expr(r, depth - 1)).collect(), sp())
        }
        7 => {
            let n = r.below(3);
            Expr::Map(
                (0..n).map(|_| (r.pick(KEYS).to_string(), gen_expr(r, depth - 1))).collect(),
                sp(),
            )
        }
        8 => {
            let ops = [
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
            Expr::Binary(
                *r.pick(&ops),
                Box::new(gen_expr(r, depth - 1)),
                Box::new(gen_expr(r, depth - 1)),
                sp(),
            )
        }
        9 => {
            let op = if r.below(2) == 0 { UnOp::Neg } else { UnOp::Not };
            Expr::Unary(op, Box::new(gen_expr(r, depth - 1)), sp())
        }
        10 => {
            let name = r.pick(CALLS).to_string();
            let argc = r.below(4);
            let mut args: Vec<Expr> = Vec::new();
            // Mutating forms want an lvalue-ish first argument most of the
            // time so the happy paths get real coverage, not just the
            // "target must be a variable" error.
            if matches!(name.as_str(), "push" | "pop" | "insert" | "delete") && r.below(4) > 0 {
                args.push(match r.below(3) {
                    0 => Expr::Var(r.pick(VARS).to_string(), sp()),
                    1 => Expr::Index(
                        Box::new(Expr::Var(r.pick(VARS).to_string(), sp())),
                        Box::new(gen_expr(r, 0)),
                        sp(),
                    ),
                    _ => gen_expr(r, depth - 1),
                });
            }
            while (args.len() as u64) < argc {
                args.push(gen_expr(r, depth - 1));
            }
            Expr::Call(name, args, sp())
        }
        _ => Expr::Index(Box::new(gen_expr(r, depth - 1)), Box::new(gen_expr(r, depth - 1)), sp()),
    }
}

fn gen_stmt(r: &mut Rng, depth: u32) -> Stmt {
    match if depth == 0 { r.below(5) } else { r.below(10) } {
        0 => Stmt::Let { name: r.pick(VARS).to_string(), value: gen_expr(r, 2), span: sp() },
        1 => Stmt::Assign {
            target: LValue::Var(r.pick(VARS).to_string()),
            value: gen_expr(r, 2),
            span: sp(),
        },
        2 => Stmt::Assign {
            target: LValue::Index(r.pick(VARS).to_string(), gen_expr(r, 1)),
            value: gen_expr(r, 2),
            span: sp(),
        },
        3 => Stmt::Expr(gen_expr(r, 2)),
        4 => Stmt::Return { value: (r.below(2) == 0).then(|| gen_expr(r, 2)), span: sp() },
        5 => Stmt::If {
            cond: gen_expr(r, 1),
            then_branch: gen_block(r, depth - 1),
            else_branch: if r.below(2) == 0 { gen_block(r, depth - 1) } else { vec![] },
            span: sp(),
        },
        6 => Stmt::While { cond: gen_expr(r, 1), body: gen_block(r, depth - 1), span: sp() },
        7 => Stmt::For {
            var: r.pick(VARS).to_string(),
            iterable: gen_expr(r, 1),
            body: gen_block(r, depth - 1),
            span: sp(),
        },
        8 => Stmt::Break(sp()),
        _ => Stmt::Continue(sp()),
    }
}

fn gen_block(r: &mut Rng, depth: u32) -> Vec<Stmt> {
    (0..r.below(3) + 1).map(|_| gen_stmt(r, depth)).collect()
}

fn gen_program(r: &mut Rng) -> Program {
    let f0 = FnDecl {
        name: "f0".into(),
        params: vec!["a".into(), "b".into()],
        body: gen_block(r, 2),
        span: sp(),
    };
    let f1 =
        FnDecl { name: "f1".into(), params: vec!["a".into()], body: gen_block(r, 2), span: sp() };
    // main seeds a couple of variables so generated reads often hit
    // something defined; the rest stay undefined on purpose.
    let mut body = vec![
        Stmt::Let { name: "x".into(), value: gen_expr(r, 2), span: sp() },
        Stmt::Let { name: "y".into(), value: gen_expr(r, 2), span: sp() },
    ];
    body.extend(gen_block(r, 3));
    let main = FnDecl { name: "main".into(), params: vec![], body, span: sp() };
    Program { functions: vec![f0, f1, main] }
}

/// Deterministic host that logs every call it receives.
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

/// Run one program through both engines and require full observational
/// equality. Returns the interpreter outcome for corpus statistics.
fn assert_equivalent(program: &Program, fuel: u64, label: &str) -> Result<Value, ScriptError> {
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

#[test]
fn random_programs_agree_between_interpreter_and_vm() {
    let mut ok = 0u32;
    let mut errs = 0u32;
    for seed in 0..600u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
        let program = gen_program(&mut rng);
        match assert_equivalent(&program, 3_000, &format!("seed {seed}")) {
            Ok(_) => ok += 1,
            Err(_) => errs += 1,
        }
    }
    // The corpus must genuinely exercise both sides of the contract.
    assert!(ok > 50, "corpus too error-heavy: only {ok} clean runs");
    assert!(errs > 50, "corpus too clean: only {errs} erroring runs");
}

/// Hand-picked programs the random generator is unlikely to hit: integer
/// extremes reached through wrapping arithmetic, and every way one `Arc` can
/// end up behind two names now that containers are shared copy-on-write.
/// Each entry pins the expected outcome *and* goes through
/// `assert_equivalent`, so both engines must agree on it.
#[test]
fn corner_cases_agree_between_interpreter_and_vm() {
    const MIN: &str = "let i = 0 - 9223372036854775807 - 1;";
    let int = |i: i64| Ok(Value::Int(i));
    let err = |needle: &'static str| Err(needle);
    let cases: Vec<(String, Result<Value, &'static str>)> = vec![
        // i64::MIN as an index is out of bounds, not a negation overflow.
        (format!("fn main() {{ {MIN} let xs = [1, 2]; return xs[i]; }}"), err("out of bounds")),
        (format!("fn main() {{ {MIN} let s = \"ab\"; return s[i]; }}"), err("out of bounds")),
        (format!("fn main() {{ {MIN} let xs = [1, 2]; xs[i] = 9; return xs; }}"), err("out of bounds")),
        (format!("fn main() {{ {MIN} let xs = [[1]]; push(xs[i], 2); return xs; }}"), err("out of bounds")),
        (format!("fn main() {{ {MIN} return -i == i; }}"), Ok(Value::Bool(true))),
        // Ordinary negative indices still count from the end.
        ("fn main() { let xs = [1, 2, 3]; xs[-3] = 7; return xs[-3] + xs[-1]; }".into(), int(10)),
        ("fn main() { let xs = [1, 2, 3]; return xs[-4]; }".into(), err("out of bounds")),
        // Aliasing: a copy is a copy, whichever side is mutated.
        ("fn main() { let a = [0]; let b = a; push(b, 1); return len(a) * 10 + len(b); }".into(), int(12)),
        ("fn main() { let a = [0]; let b = a; push(a, 1); return len(a) * 10 + len(b); }".into(), int(21)),
        ("fn main() { let a = {\"k\": 1}; let b = a; b[\"k\"] = 2; return a[\"k\"] * 10 + b[\"k\"]; }".into(), int(12)),
        // Nested map-of-list mutated through one index level.
        (
            "fn main() { let m = {\"xs\": [1]}; let n = m; push(n[\"xs\"], 2); \
             return len(m[\"xs\"]) * 10 + len(n[\"xs\"]); }"
                .into(),
            int(12),
        ),
        (
            "fn main() { let inner = [1]; let m = {\"xs\": inner}; push(m[\"xs\"], 2); \
             return len(inner) * 10 + len(m[\"xs\"]); }"
                .into(),
            int(12),
        ),
        // An argument mutated in the callee never reaches the caller.
        (
            "fn grow(xs) { push(xs, 9); xs[0] = 5; return xs; } \
             fn main() { let a = [1]; let b = grow(a); return a[0] * 100 + len(a) * 10 + len(b); }"
                .into(),
            int(112),
        ),
        // A list iterated while the loop body mutates the variable it came from.
        ("fn main() { let xs = [1, 2, 3]; let n = 0; for x in xs { push(xs, x); n = n + 1; } return n * 10 + len(xs); }".into(), int(36)),
    ];
    for (src, expected) in cases {
        let program = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let got = assert_equivalent(&program, 10_000, &src);
        match (got, expected) {
            (Ok(v), Ok(want)) => assert_eq!(v, want, "{src}"),
            (Err(e), Err(needle)) => {
                assert!(matches!(e, ScriptError::Runtime { .. }), "{src}: {e:?}");
                assert!(e.to_string().contains(needle), "{src}: {e}");
            }
            (got, want) => panic!("{src}: got {got:?}, wanted {want:?}"),
        }
    }
}

#[test]
fn reparsed_programs_agree_with_real_spans() {
    // Printing and reparsing attaches genuine line/column spans, so this
    // variant also proves the compiler pins the same error spans the
    // interpreter reports (Result equality compares spans).
    let mut reparsed_count = 0u32;
    for seed in 0..300u64 {
        let mut rng = Rng(seed.wrapping_mul(0xd605_bbb5_8c8a_bc03) + 7);
        let program = gen_program(&mut rng);
        let printed = pretty::program(&program);
        let reparsed = match parse(&printed) {
            Ok(p) => p,
            Err(e) => panic!("pretty output failed to reparse: {e}\n{printed}"),
        };
        let _ = assert_equivalent(&reparsed, 3_000, &format!("reparsed seed {seed}"));
        reparsed_count += 1;
    }
    assert_eq!(reparsed_count, 300);
}

#[test]
fn fuel_exhaustion_is_tick_identical_at_every_budget() {
    // Sweep budgets across a looping program: at every cutoff point the two
    // engines must trap (or finish) identically with identical fuel use.
    let src = r#"
        fn main() {
            let s = 0;
            let i = 0;
            while i < 40 {
                i = i + 1;
                for x in [1, 2, 3] { s = s + x * i; }
                if i % 5 == 0 { s = s - len("abc"); }
            }
            return s;
        }
    "#;
    let program = parse(src).unwrap();
    let compiled = Arc::new(compile(&program));
    for budget in 1..400u64 {
        let mut interp = Interpreter::new(&program).with_fuel(budget);
        let i = interp.call(&mut lingua_script::NoHost, "main", vec![]);
        let mut vm = Vm::new(Arc::clone(&compiled)).with_fuel(budget);
        let v = vm.call(&mut lingua_script::NoHost, "main", vec![]);
        assert_eq!(i, v, "budget {budget}");
        assert_eq!(interp.fuel_used(), vm.fuel_used(), "budget {budget}");
    }
}

#[test]
fn recursion_traps_at_identical_depths() {
    let src = "fn f(n) { if n == 0 { return 0; } return f(n - 1); } fn main() { return f(100); }";
    let program = parse(src).unwrap();
    let compiled = Arc::new(compile(&program));
    for depth in 2..40usize {
        let mut interp = Interpreter::new(&program).with_max_depth(depth);
        let i = interp.call(&mut lingua_script::NoHost, "main", vec![]);
        let mut vm = Vm::new(Arc::clone(&compiled)).with_max_depth(depth);
        let v = vm.call(&mut lingua_script::NoHost, "main", vec![]);
        assert_eq!(i, v, "depth {depth}");
    }
}
