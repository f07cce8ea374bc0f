//! Pretty-printer: render an AST back to MangaScript source.
//!
//! `parse(pretty(program))` reproduces the program (modulo spans) — the
//! property test at the bottom checks this on generated ASTs. The simulated
//! LLM uses this to turn its generated ASTs into the "code" shown to users
//! and re-parsed by the Validator.

use crate::ast::*;
use std::fmt::Write;

/// Render a whole program.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for (i, f) in p.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        fn_decl(&mut out, f);
    }
    out
}

fn fn_decl(out: &mut String, f: &FnDecl) {
    let _ = writeln!(out, "fn {}({}) {{", f.name, f.params.join(", "));
    block(out, &f.body, 1);
    out.push_str("}\n");
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn block(out: &mut String, stmts: &[Stmt], depth: usize) {
    for stmt in stmts {
        statement(out, stmt, depth);
    }
}

fn statement(out: &mut String, stmt: &Stmt, depth: usize) {
    indent(out, depth);
    match stmt {
        Stmt::Let { name, value, .. } => {
            let _ = writeln!(out, "let {name} = {};", expr(value));
        }
        Stmt::Assign { target, value, .. } => match target {
            LValue::Var(name) => {
                let _ = writeln!(out, "{name} = {};", expr(value));
            }
            LValue::Index(name, index) => {
                let _ = writeln!(out, "{name}[{}] = {};", expr(index), expr(value));
            }
        },
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{};", expr(e));
        }
        Stmt::If { cond, then_branch, else_branch, .. } => {
            let _ = writeln!(out, "if {} {{", expr(cond));
            block(out, then_branch, depth + 1);
            indent(out, depth);
            if else_branch.is_empty() {
                out.push_str("}\n");
            } else if else_branch.len() == 1 && matches!(else_branch[0], Stmt::If { .. }) {
                // `else if` chain: print inline.
                out.push_str("} else ");
                let mut chain = String::new();
                statement(&mut chain, &else_branch[0], depth);
                // Strip the leading indentation the nested call added.
                out.push_str(chain.trim_start());
            } else {
                out.push_str("} else {\n");
                block(out, else_branch, depth + 1);
                indent(out, depth);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body, .. } => {
            let _ = writeln!(out, "while {} {{", expr(cond));
            block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::For { var, iterable, body, .. } => {
            let _ = writeln!(out, "for {var} in {} {{", expr(iterable));
            block(out, body, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::Return { value, .. } => match value {
            Some(v) => {
                let _ = writeln!(out, "return {};", expr(v));
            }
            None => out.push_str("return;\n"),
        },
        Stmt::Break(_) => out.push_str("break;\n"),
        Stmt::Continue(_) => out.push_str("continue;\n"),
    }
}

/// Render an expression with minimal (but always-correct) parenthesization:
/// child binary expressions are parenthesized when their precedence is not
/// higher than the parent's.
pub fn expr(e: &Expr) -> String {
    expr_prec(e, 0)
}

fn expr_prec(e: &Expr, parent_prec: u8) -> String {
    match e {
        Expr::Null(_) => "null".into(),
        Expr::Bool(b, _) => b.to_string(),
        Expr::Int(i, _) => i.to_string(),
        Expr::Float(f, _) => {
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        Expr::Str(s, _) => string_literal(s),
        Expr::Var(name, _) => name.clone(),
        Expr::List(items, _) => {
            let inner: Vec<String> = items.iter().map(|i| expr_prec(i, 0)).collect();
            format!("[{}]", inner.join(", "))
        }
        Expr::Map(pairs, _) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", string_literal(k), expr_prec(v, 0)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Expr::Unary(op, inner, _) => {
            let symbol = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            // Unary binds tighter than any binary operator.
            format!("{symbol}{}", expr_prec(inner, 7))
        }
        Expr::Binary(op, l, r, _) => {
            let prec = op.precedence();
            let text = format!(
                "{} {} {}",
                expr_prec(l, prec),
                op.symbol(),
                // Right side binds one tighter: `a - b - c` prints correctly
                // as left-associative.
                expr_prec(r, prec + 1)
            );
            if prec < parent_prec {
                format!("({text})")
            } else {
                text
            }
        }
        Expr::Call(name, args, _) => {
            let inner: Vec<String> = args.iter().map(|a| expr_prec(a, 0)).collect();
            format!("{name}({})", inner.join(", "))
        }
        Expr::Index(base, index, _) => {
            // Base must be a postfix-safe expression; a negative constant is
            // not, `-1[i]` reads as `-(1[i])`.
            let wrap = match **base {
                Expr::Binary(..) | Expr::Unary(..) => true,
                Expr::Int(v, _) => v < 0,
                Expr::Float(v, _) => v.is_sign_negative(),
                _ => false,
            };
            let base_text =
                if wrap { format!("({})", expr_prec(base, 0)) } else { expr_prec(base, 7) };
            format!("{base_text}[{}]", expr_prec(index, 0))
        }
    }
}

fn string_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn roundtrip(src: &str) {
        let p1 = parse(src).unwrap();
        let printed = program(&p1);
        let p2 = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- printed ---\n{printed}"));
        // Strict structural equality modulo spans: parse(pretty(ast)) == ast.
        assert_eq!(p2.strip_spans(), p1.strip_spans(), "printed:\n{printed}");
    }

    #[test]
    fn negative_literals_roundtrip_exactly() {
        // The printer emits `-5`; the parser folds it back into `Int(-5)`
        // rather than `Neg(Int(5))`, so strict AST equality holds.
        roundtrip(r#"fn f() { return -5 + -2.5; }"#);
        roundtrip(r#"fn f() { return [-1, -0.125, {"k": -9}]; }"#);
        // i64::MIN has no positive counterpart to negate, and still reads back.
        roundtrip(r#"fn f() { return -9223372036854775808; }"#);
        // As an index base a negative constant keeps its own parentheses.
        roundtrip(r#"fn f() { return (-1)[0] + (-0.5)["k"] + -x[0]; }"#);
    }

    #[test]
    fn roundtrips_statements() {
        roundtrip(
            r#"
            fn demo(items, m) {
                let total = 0;
                for item in items {
                    if item > 10 { total = total + item; }
                    else if item < 0 { continue; }
                    else { break; }
                }
                while total > 100 { total = total - 1; }
                m["c"] = 3;
                print(total);
                return total;
            }
            "#,
        );
    }

    #[test]
    fn roundtrips_expressions() {
        roundtrip(r#"fn f(a, b) { return (a + b) * 2 - -a; }"#);
        roundtrip(r#"fn f(a, b) { return a > 1 && b < 2 || !(a == b); }"#);
        roundtrip(r#"fn f(m) { return m["k"][0] + [1, 2][1]; }"#);
        roundtrip(r#"fn f() { return {"a": 1, "b": [2, {"c": null}]}; }"#);
        roundtrip(r#"fn f() { return "quote \" backslash \\ newline \n"; }"#);
        roundtrip(r#"fn f(a) { return a - 1 - 2; }"#);
        roundtrip(r#"fn f(a) { return a - (1 - 2); }"#);
    }

    #[test]
    fn left_associativity_preserved() {
        let p = parse("fn f(a) { return a - 1 - 2; }").unwrap();
        let printed = program(&p);
        assert!(printed.contains("a - 1 - 2"), "{printed}");
        let p = parse("fn f(a) { return a - (1 - 2); }").unwrap();
        let printed = program(&p);
        assert!(printed.contains("a - (1 - 2)"), "{printed}");
    }

    #[test]
    fn precedence_parens_only_when_needed() {
        let p = parse("fn f(a, b) { return (a + b) * 2; }").unwrap();
        let printed = program(&p);
        assert!(printed.contains("(a + b) * 2"), "{printed}");
        let p = parse("fn f(a, b) { return a + b * 2; }").unwrap();
        let printed = program(&p);
        assert!(printed.contains("a + b * 2"), "{printed}");
        assert!(!printed.contains("(b * 2)"), "{printed}");
    }

    #[test]
    fn else_if_chain_prints_flat() {
        let p = parse(
            "fn f(x) { if x > 1 { return 1; } else if x > 0 { return 0; } else { return -1; } }",
        )
        .unwrap();
        let printed = program(&p);
        assert!(printed.contains("} else if x > 0 {"), "{printed}");
        roundtrip(&printed);
    }

    #[test]
    fn semantics_preserved_through_roundtrip() {
        use crate::host::NoHost;
        use crate::interp::Interpreter;
        use crate::value::Value;
        let src = r#"
            fn main() {
                let out = [];
                for x in range(6) {
                    if x % 2 == 0 { push(out, x * x); }
                }
                return sum(out);
            }
        "#;
        let p1 = parse(src).unwrap();
        let p2 = parse(&program(&p1)).unwrap();
        let r1 = Interpreter::new(&p1).call(&mut NoHost, "main", vec![]).unwrap();
        let r2 = Interpreter::new(&p2).call(&mut NoHost, "main", vec![]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, Value::Int(20));
    }
}
