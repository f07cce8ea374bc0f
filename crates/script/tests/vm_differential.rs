//! Seeded differential testing: the bytecode VM must be observationally
//! identical to the tree-walking interpreter — same results, same errors
//! (including spans), same fuel consumption to the tick, same print output,
//! and the same host-call sequence.
//!
//! The random programs come from the shared generator in `common`;
//! `prop_vm_diff.rs` runs the same comparison under other fuel budgets.

mod common;

use common::assert_equivalent;
use lingua_ml::check::check;
use lingua_script::{compile, parse, pretty, Interpreter, ScriptError, Value, Vm};
use std::sync::Arc;

#[test]
fn random_programs_agree_between_interpreter_and_vm() {
    let mut ok = 0u32;
    let mut errs = 0u32;
    check("random_programs_agree_between_interpreter_and_vm", 600, common::program, |program| {
        match assert_equivalent(&program, 3_000, "generated") {
            Ok(_) => ok += 1,
            Err(_) => errs += 1,
        }
    });
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
    check("reparsed_programs_agree_with_real_spans", 300, common::program, |program| {
        let printed = pretty::program(&program);
        let reparsed = match parse(&printed) {
            Ok(p) => p,
            Err(e) => panic!("pretty output failed to reparse: {e}\n{printed}"),
        };
        let _ = assert_equivalent(&reparsed, 3_000, "reparsed");
    });
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
