//! Property tests: `parse(pretty(ast)) == ast` (strict structural identity
//! modulo spans), and the interpreter never panics on arbitrary small
//! programs.

mod common;

use lingua_ml::check::{check, PRINTABLE};
use lingua_script::{ast::*, parse, pretty, Interpreter, NoHost, Value};

/// The parser folds a negated numeric literal into a signed constant, so
/// `parse(pretty(ast))` can only equal an `ast` in which that has been done.
fn fold_negated_literals(e: &mut Expr) {
    match e {
        Expr::List(items, _) | Expr::Call(_, items, _) => {
            items.iter_mut().for_each(fold_negated_literals)
        }
        Expr::Map(pairs, _) => pairs.iter_mut().for_each(|(_, v)| fold_negated_literals(v)),
        Expr::Binary(_, l, r, _) | Expr::Index(l, r, _) => {
            fold_negated_literals(l);
            fold_negated_literals(r);
        }
        Expr::Unary(op, inner, span) => {
            fold_negated_literals(inner);
            match (*op, &**inner) {
                (UnOp::Neg, Expr::Int(v, _)) => *e = Expr::Int(v.wrapping_neg(), *span),
                (UnOp::Neg, Expr::Float(v, _)) => *e = Expr::Float(-v, *span),
                _ => {}
            }
        }
        _ => {}
    }
}

fn fold_in_block(block: &mut [Stmt]) {
    for stmt in block {
        match stmt {
            Stmt::Let { value, .. } | Stmt::Expr(value) => fold_negated_literals(value),
            Stmt::Assign { target, value, .. } => {
                if let LValue::Index(_, index) = target {
                    fold_negated_literals(index);
                }
                fold_negated_literals(value);
            }
            Stmt::If { cond, then_branch, else_branch, .. } => {
                fold_negated_literals(cond);
                fold_in_block(then_branch);
                fold_in_block(else_branch);
            }
            Stmt::While { cond: head, body, .. } | Stmt::For { iterable: head, body, .. } => {
                fold_negated_literals(head);
                fold_in_block(body);
            }
            Stmt::Return { value, .. } => value.iter_mut().for_each(fold_negated_literals),
            Stmt::Break(_) | Stmt::Continue(_) => {}
        }
    }
}

#[test]
fn pretty_parse_roundtrip() {
    check("pretty_parse_roundtrip", 200, common::program, |mut p| {
        p.functions.iter_mut().for_each(|f| fold_in_block(&mut f.body));
        let printed = pretty::program(&p);
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        // Strict structural identity modulo spans: parse(pretty(ast)) == ast.
        assert_eq!(reparsed.strip_spans(), p.strip_spans(), "printed:\n{printed}");
        // And printing again must be a fixed point.
        assert_eq!(pretty::program(&reparsed), printed);
    });
}

#[test]
fn interpreter_never_panics() {
    check(
        "interpreter_never_panics",
        200,
        |g| (common::program(g), g.int(-50i64..50)),
        |(p, arg)| {
            // Run every function with the right arity; errors are fine, panics are not.
            for f in &p.functions {
                let args: Vec<Value> = f.params.iter().map(|_| Value::Int(arg)).collect();
                let mut interp = Interpreter::new(&p).with_fuel(20_000);
                let _ = interp.call(&mut NoHost, &f.name, args);
            }
        },
    );
}

#[test]
fn lexer_never_panics_on_arbitrary_input() {
    let alphabet = format!("{PRINTABLE}\n\t");
    check(
        "lexer_never_panics_on_arbitrary_input",
        200,
        |g| g.string(&alphabet, 0..=80),
        |src| {
            let _ = parse(&src);
        },
    );
}
