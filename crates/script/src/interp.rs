//! The tree-walking interpreter: the reference semantics the bytecode
//! [`crate::Vm`] is differential-tested against. Nothing in production runs
//! it — it shares [`Value`], the operator helpers and the builtins with the
//! VM, so all it adds is a second, obviously-correct evaluation order.

use crate::ast::*;
use crate::builtins;
use crate::bytecode::MutOp;
use crate::error::{ScriptError, Span};
use crate::host::{Host, DEFAULT_FUEL, DEFAULT_MAX_DEPTH};
use crate::ops;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};

/// Control flow signal threaded through statement execution.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// A (re-usable) interpreter over one parsed program.
pub struct Interpreter<'p> {
    program: &'p Program,
    fuel_budget: u64,
    fuel: u64,
    max_depth: usize,
    depth: usize,
    /// Lines produced by `print(...)` during the last call.
    pub output: Vec<String>,
}

impl<'p> Interpreter<'p> {
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            fuel_budget: DEFAULT_FUEL,
            fuel: DEFAULT_FUEL,
            max_depth: DEFAULT_MAX_DEPTH,
            depth: 0,
            output: Vec::new(),
        }
    }

    /// Override the fuel budget (per `call`).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel_budget = fuel;
        self
    }

    /// Override the call-depth limit (per `call`).
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth.max(1);
        self
    }

    /// Fuel consumed by the last `call`.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_budget - self.fuel
    }

    /// Invoke a top-level function by name.
    pub fn call(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Value, ScriptError> {
        self.fuel = self.fuel_budget;
        self.depth = 0;
        self.output.clear();
        self.call_function(host, name, args, Span::default())
    }

    fn tick(&mut self) -> Result<(), ScriptError> {
        if self.fuel == 0 {
            return Err(ScriptError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn call_function(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        args: Vec<Value>,
        span: Span,
    ) -> Result<Value, ScriptError> {
        // Trap runaway recursion before it overflows the host stack (an
        // abort, not an unwind — nothing upstream could catch it).
        if self.depth >= self.max_depth {
            return Err(ScriptError::RecursionLimit { depth: self.depth });
        }
        self.depth += 1;
        let result = self.call_function_frame(host, name, args, span);
        self.depth -= 1;
        result
    }

    fn call_function_frame(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        args: Vec<Value>,
        span: Span,
    ) -> Result<Value, ScriptError> {
        let func = self
            .program
            .function(name)
            .ok_or_else(|| ScriptError::runtime(span, format!("unknown function `{name}`")))?;
        if func.params.len() != args.len() {
            return Err(ScriptError::runtime(
                span,
                format!(
                    "function `{name}` expects {} argument(s), got {}",
                    func.params.len(),
                    args.len()
                ),
            ));
        }
        let mut scope: HashMap<String, Value> = func.params.iter().cloned().zip(args).collect();
        // Clone the body statements' reference via raw indexing to avoid
        // borrowing issues: the program outlives the interpreter borrow.
        let body = func.body.clone();
        match self.run_block(host, &body, &mut scope)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Null),
        }
    }

    fn run_block(
        &mut self,
        host: &mut dyn Host,
        stmts: &[Stmt],
        scope: &mut HashMap<String, Value>,
    ) -> Result<Flow, ScriptError> {
        for stmt in stmts {
            match self.run_stmt(host, stmt, scope)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn run_stmt(
        &mut self,
        host: &mut dyn Host,
        stmt: &Stmt,
        scope: &mut HashMap<String, Value>,
    ) -> Result<Flow, ScriptError> {
        self.tick()?;
        match stmt {
            Stmt::Let { name, value, .. } => {
                let v = self.eval(host, value, scope)?;
                scope.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value, span } => {
                let v = self.eval(host, value, scope)?;
                match target {
                    LValue::Var(name) => {
                        if !scope.contains_key(name) {
                            return Err(ScriptError::runtime(
                                *span,
                                format!("assignment to undeclared variable `{name}`"),
                            ));
                        }
                        scope.insert(name.clone(), v);
                    }
                    LValue::Index(name, index_expr) => {
                        let index = self.eval(host, index_expr, scope)?;
                        let container = scope.get_mut(name).ok_or_else(|| {
                            ScriptError::runtime(*span, format!("unknown variable `{name}`"))
                        })?;
                        ops::assign_index(container, &index, v, *span)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                self.eval(host, expr, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_branch, else_branch, .. } => {
                let c = self.eval(host, cond, scope)?;
                if c.truthy() {
                    self.run_block(host, then_branch, scope)
                } else {
                    self.run_block(host, else_branch, scope)
                }
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    self.tick()?;
                    let c = self.eval(host, cond, scope)?;
                    if !c.truthy() {
                        break;
                    }
                    match self.run_block(host, body, scope)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iterable, body, span } => {
                let iter_value = self.eval(host, iterable, scope)?;
                for item in ops::iterate(iter_value, *span)? {
                    self.tick()?;
                    scope.insert(var.clone(), item);
                    match self.run_block(host, body, scope)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(expr) => self.eval(host, expr, scope)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
        }
    }

    fn eval(
        &mut self,
        host: &mut dyn Host,
        expr: &Expr,
        scope: &mut HashMap<String, Value>,
    ) -> Result<Value, ScriptError> {
        self.tick()?;
        match expr {
            Expr::Null(_) => Ok(Value::Null),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Int(i, _) => Ok(Value::Int(*i)),
            Expr::Float(f, _) => Ok(Value::Float(*f)),
            Expr::Str(s, _) => Ok(Value::from(s.as_str())),
            Expr::Var(name, span) => scope
                .get(name)
                .cloned()
                .ok_or_else(|| ScriptError::runtime(*span, format!("unknown variable `{name}`"))),
            Expr::List(items, _) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(host, item, scope)?);
                }
                Ok(Value::from(out))
            }
            Expr::Map(pairs, _) => {
                let mut out = BTreeMap::new();
                for (k, v) in pairs {
                    let value = self.eval(host, v, scope)?;
                    out.insert(k.clone(), value);
                }
                Ok(Value::from(out))
            }
            Expr::Unary(op, inner, span) => {
                let v = self.eval(host, inner, scope)?;
                match op {
                    UnOp::Neg => ops::negate(v, *span),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            Expr::Binary(op, left, right, span) => {
                self.eval_binary(host, *op, left, right, *span, scope)
            }
            Expr::Call(name, args, span) => self.eval_call(host, name, args, *span, scope),
            Expr::Index(base, index, span) => {
                let b = self.eval(host, base, scope)?;
                let i = self.eval(host, index, scope)?;
                ops::read_index(&b, &i, *span)
            }
        }
    }

    fn eval_binary(
        &mut self,
        host: &mut dyn Host,
        op: BinOp,
        left: &Expr,
        right: &Expr,
        span: Span,
        scope: &mut HashMap<String, Value>,
    ) -> Result<Value, ScriptError> {
        // Short-circuiting logical operators.
        if op == BinOp::And {
            let l = self.eval(host, left, scope)?;
            if !l.truthy() {
                return Ok(Value::Bool(false));
            }
            let r = self.eval(host, right, scope)?;
            return Ok(Value::Bool(r.truthy()));
        }
        if op == BinOp::Or {
            let l = self.eval(host, left, scope)?;
            if l.truthy() {
                return Ok(Value::Bool(true));
            }
            let r = self.eval(host, right, scope)?;
            return Ok(Value::Bool(r.truthy()));
        }

        let l = self.eval(host, left, scope)?;
        let r = self.eval(host, right, scope)?;
        ops::binary(op, &l, &r, span)
    }

    fn eval_call(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        args: &[Expr],
        span: Span,
        scope: &mut HashMap<String, Value>,
    ) -> Result<Value, ScriptError> {
        // Mutating special forms: the first argument must be an lvalue.
        if let Some(op) = MutOp::from_name(name) {
            return self.eval_mutating_call(host, op, args, span, scope);
        }

        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            values.push(self.eval(host, arg, scope)?);
        }

        // 1. User-defined functions shadow builtins.
        if self.program.function(name).is_some() {
            return self.call_function(host, name, values, span);
        }

        // 2. Host bridge.
        match name {
            "call_llm" => {
                let prompt = values.first().and_then(|v| v.as_str()).ok_or_else(|| {
                    ScriptError::runtime(span, "call_llm expects a string prompt")
                })?;
                return host
                    .call_llm(prompt)
                    .map(Value::from)
                    .map_err(|message| ScriptError::Host { message });
            }
            "call_module" => {
                if values.len() != 2 {
                    return Err(ScriptError::runtime(span, "call_module expects (name, input)"));
                }
                let module = values[0]
                    .as_str()
                    .ok_or_else(|| ScriptError::runtime(span, "module name must be a string"))?
                    .to_string();
                return host
                    .call_module(&module, values[1].clone())
                    .map_err(|message| ScriptError::Host { message });
            }
            "call_tool" => {
                let tool = values
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| ScriptError::runtime(span, "call_tool expects a tool name"))?
                    .to_string();
                return host
                    .call_tool(&tool, &values[1..])
                    .map_err(|message| ScriptError::Host { message });
            }
            "print" => {
                let line = values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
                self.output.push(line);
                return Ok(Value::Null);
            }
            _ => {}
        }

        // 3. Builtins.
        builtins::call(name, &values, span)
    }

    /// `push(list, v)`, `pop(list)`, `insert(map, k, v)`, `delete(map, k)` —
    /// mutate the container held by a variable (or one index level into it).
    fn eval_mutating_call(
        &mut self,
        host: &mut dyn Host,
        op: MutOp,
        args: &[Expr],
        span: Span,
        scope: &mut HashMap<String, Value>,
    ) -> Result<Value, ScriptError> {
        let name = op.name();
        let Some((target, rest)) = args.split_first() else {
            return Err(ScriptError::runtime(span, format!("{name} expects a container argument")));
        };
        let mut rest_values = Vec::with_capacity(rest.len());
        for arg in rest {
            rest_values.push(self.eval(host, arg, scope)?);
        }
        // Resolve the target to a mutable container reference.
        let (var, index) = match target {
            Expr::Var(v, _) => (v, None),
            Expr::Index(base, idx, _) => match &**base {
                Expr::Var(v, _) => (v, Some(self.eval(host, idx, scope)?)),
                _ => {
                    return Err(ScriptError::runtime(
                        span,
                        format!("{name} target must be a variable or `var[index]`"),
                    ))
                }
            },
            _ => {
                return Err(ScriptError::runtime(
                    span,
                    format!("{name} target must be a variable or `var[index]`"),
                ))
            }
        };
        let container = scope
            .get_mut(var)
            .ok_or_else(|| ScriptError::runtime(span, format!("unknown variable `{var}`")))?;
        let slot: &mut Value = match &index {
            None => container,
            Some(i) => ops::index_mut(container, i, span)?,
        };
        ops::mutate(op, slot, &rest_values, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::NoHost;
    use crate::parse;

    fn run(src: &str, func: &str, args: Vec<Value>) -> Result<Value, ScriptError> {
        let program = parse(src).unwrap();
        Interpreter::new(&program).call(&mut NoHost, func, args)
    }

    fn run1(src: &str) -> Value {
        run(src, "main", vec![]).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run1("fn main() { return 1 + 2 * 3; }"), Value::Int(7));
        assert_eq!(run1("fn main() { return (1 + 2) * 3; }"), Value::Int(9));
        assert_eq!(run1("fn main() { return 7 / 2; }"), Value::Int(3));
        assert_eq!(run1("fn main() { return 7.0 / 2; }"), Value::Float(3.5));
        assert_eq!(run1("fn main() { return 7 % 3; }"), Value::Int(1));
        assert_eq!(run1("fn main() { return -3 + 1; }"), Value::Int(-2));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(run("fn main() { return 1 / 0; }", "main", vec![]).is_err());
        assert!(run("fn main() { return 1 % 0; }", "main", vec![]).is_err());
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(run1(r#"fn main() { return "a" + "b" + 1; }"#), Value::Str("ab1".into()));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run1("fn main() { return 1 < 2 && 2 <= 2; }"), Value::Bool(true));
        assert_eq!(run1(r#"fn main() { return "a" < "b"; }"#), Value::Bool(true));
        assert_eq!(run1("fn main() { return !(1 == 1.0); }"), Value::Bool(false));
        assert_eq!(run1("fn main() { return 1 > 2 || 3 > 2; }"), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // Division by zero on the right is never evaluated.
        assert_eq!(run1("fn main() { return false && 1 / 0 == 1; }"), Value::Bool(false));
        assert_eq!(run1("fn main() { return true || 1 / 0 == 1; }"), Value::Bool(true));
    }

    #[test]
    fn variables_and_assignment() {
        assert_eq!(run1("fn main() { let x = 1; x = x + 5; return x; }"), Value::Int(6));
        // Assigning an undeclared variable fails.
        assert!(run("fn main() { y = 3; return y; }", "main", vec![]).is_err());
    }

    #[test]
    fn lists_and_maps() {
        assert_eq!(
            run1("fn main() { let xs = [1, 2, 3]; xs[1] = 9; return xs[1] + xs[-1]; }"),
            Value::Int(12)
        );
        assert_eq!(
            run1(r#"fn main() { let m = {"a": 1}; m["b"] = 2; return m["a"] + m["b"]; }"#),
            Value::Int(3)
        );
        // Missing map key reads as null.
        assert_eq!(run1(r#"fn main() { let m = {}; return m["nope"]; }"#), Value::Null);
        // Out-of-bounds list read errors.
        assert!(run("fn main() { let xs = [1]; return xs[5]; }", "main", vec![]).is_err());
    }

    #[test]
    fn push_pop_insert_delete() {
        assert_eq!(
            run1("fn main() { let xs = []; push(xs, 1); push(xs, 2); let last = pop(xs); return last + len(xs); }"),
            Value::Int(3)
        );
        assert_eq!(
            run1(
                r#"fn main() { let m = {}; insert(m, "k", 5); let v = delete(m, "k"); return v + len(m); }"#
            ),
            Value::Int(5)
        );
        // push into a nested container through one index level.
        assert_eq!(
            run1(r#"fn main() { let m = {"xs": []}; push(m["xs"], 7); return m["xs"][0]; }"#),
            Value::Int(7)
        );
        // push target must be an lvalue.
        assert!(run("fn main() { push([1], 2); return 0; }", "main", vec![]).is_err());
    }

    #[test]
    fn loops_and_control_flow() {
        assert_eq!(
            run1("fn main() { let s = 0; for x in [1, 2, 3, 4] { if x == 3 { continue; } s = s + x; } return s; }"),
            Value::Int(7)
        );
        assert_eq!(
            run1("fn main() { let s = 0; let i = 0; while true { i = i + 1; if i > 4 { break; } s = s + i; } return s; }"),
            Value::Int(10)
        );
        // Iterating a map yields keys; iterating a string yields chars.
        assert_eq!(
            run1(
                r#"fn main() { let ks = ""; for k in {"b": 1, "a": 2} { ks = ks + k; } return ks; }"#
            ),
            Value::Str("ab".into())
        );
        assert_eq!(
            run1(r#"fn main() { let n = 0; for c in "hey" { n = n + 1; } return n; }"#),
            Value::Int(3)
        );
    }

    #[test]
    fn function_calls_and_recursion() {
        let src = r#"
            fn fib(n) {
                if n < 2 { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { return fib(10); }
        "#;
        assert_eq!(run(src, "main", vec![]).unwrap(), Value::Int(55));
    }

    #[test]
    fn arity_mismatch_errors() {
        let err = run("fn f(a, b) { return a; } fn main() { return f(1); }", "main", vec![]);
        assert!(matches!(err, Err(ScriptError::Runtime { .. })));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let program = parse("fn main() { while true { } return 1; }").unwrap();
        let mut interp = Interpreter::new(&program).with_fuel(10_000);
        let err = interp.call(&mut NoHost, "main", vec![]);
        assert_eq!(err, Err(ScriptError::OutOfFuel));
        assert_eq!(interp.fuel_used(), 10_000);
    }

    #[test]
    fn unbounded_recursion_traps_instead_of_overflowing_the_stack() {
        // `f` never consumes enough fuel per frame for OutOfFuel to fire
        // before the host stack would blow; the depth limit must trap first.
        let program = parse("fn f(n) { return f(n + 1); } fn main() { return f(0); }").unwrap();
        let mut interp = Interpreter::new(&program);
        let err = interp.call(&mut NoHost, "main", vec![]);
        assert_eq!(err, Err(ScriptError::RecursionLimit { depth: DEFAULT_MAX_DEPTH }));
        assert_eq!(err.unwrap_err().kind(), "recursion");
    }

    #[test]
    fn depth_resets_between_calls_and_legal_recursion_fits() {
        let src = r#"
            fn down(n) { if n == 0 { return 0; } return down(n - 1); }
            fn main() { return down(40); }
        "#;
        let program = parse(src).unwrap();
        let mut interp = Interpreter::new(&program);
        for _ in 0..5 {
            // 41 frames fit under the 64 limit; the depth counter resets so
            // repeated calls do not accumulate toward the trap.
            assert_eq!(interp.call(&mut NoHost, "main", vec![]).unwrap(), Value::Int(0));
        }
        // A tightened limit turns the same program into a trap.
        let mut tight = Interpreter::new(&program).with_max_depth(16);
        assert_eq!(
            tight.call(&mut NoHost, "main", vec![]),
            Err(ScriptError::RecursionLimit { depth: 16 })
        );
    }

    #[test]
    fn fuel_resets_between_calls() {
        let program = parse("fn main() { return 1; }").unwrap();
        let mut interp = Interpreter::new(&program).with_fuel(100);
        for _ in 0..10 {
            assert_eq!(interp.call(&mut NoHost, "main", vec![]).unwrap(), Value::Int(1));
        }
    }

    #[test]
    fn print_collects_output() {
        let program = parse(r#"fn main() { print("x =", 1); print([2]); return null; }"#).unwrap();
        let mut interp = Interpreter::new(&program);
        interp.call(&mut NoHost, "main", vec![]).unwrap();
        assert_eq!(interp.output, vec!["x = 1", "[2]"]);
    }

    #[test]
    fn host_calls_reach_the_host() {
        struct EchoHost;
        impl Host for EchoHost {
            fn call_llm(&mut self, prompt: &str) -> Result<String, String> {
                Ok(format!("echo:{prompt}"))
            }
            fn call_module(&mut self, name: &str, input: Value) -> Result<Value, String> {
                Ok(Value::from(format!("{name}<{input}>")))
            }
            fn call_tool(&mut self, _name: &str, args: &[Value]) -> Result<Value, String> {
                Ok(Value::Int(args.len() as i64))
            }
        }
        let src = r#"
            fn main() {
                let a = call_llm("hi");
                let b = call_module("upper", "x");
                let c = call_tool("count", 1, 2, 3);
                return a + "|" + b + "|" + c;
            }
        "#;
        let program = parse(src).unwrap();
        let result = Interpreter::new(&program).call(&mut EchoHost, "main", vec![]).unwrap();
        assert_eq!(result, Value::Str("echo:hi|upper<x>|3".into()));
    }

    #[test]
    fn no_host_rejects_host_calls() {
        let err = run(r#"fn main() { return call_llm("hi"); }"#, "main", vec![]);
        assert!(matches!(err, Err(ScriptError::Host { .. })));
    }

    #[test]
    fn unknown_function_and_variable_errors() {
        assert!(run("fn main() { return nope(); }", "main", vec![]).is_err());
        assert!(run("fn main() { return nope; }", "main", vec![]).is_err());
    }

    #[test]
    fn user_functions_shadow_builtins() {
        let src = "fn len(x) { return 42; } fn main() { return len([1]); }";
        assert_eq!(run(src, "main", vec![]).unwrap(), Value::Int(42));
    }

    #[test]
    fn arguments_are_passed_by_value() {
        let src = r#"
            fn mutate(xs) { push(xs, 99); return xs; }
            fn main() { let a = [1]; mutate(a); return len(a); }
        "#;
        assert_eq!(run(src, "main", vec![]).unwrap(), Value::Int(1));
    }
}
