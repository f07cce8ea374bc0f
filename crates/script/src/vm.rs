//! The bytecode VM: a register-style (slot-indexed) execution engine over
//! [`CompiledScript`] — the engine every LLMGC module runs on. The
//! tree-walking [`crate::Interpreter`] is kept as its differential oracle:
//! same results, same error messages, same trap kinds, same fuel accounting,
//! same host-call order (see `tests/vm_differential.rs`).
//!
//! Where the time goes, compared with walking the AST:
//!
//! * locals are dense slots resolved at compile time instead of per-access
//!   `HashMap<String, Value>` lookups, and loading one is an `Arc` bump
//!   ([`Value`] shares its containers copy-on-write);
//! * calls push explicit frames on a VM-owned stack instead of recursing on
//!   the host stack;
//! * fuel is charged per instruction from a precomputed cost table instead
//!   of a branch per AST node;
//! * arguments, builtin calls and host calls take and return the [`Value`]s
//!   the stack already holds — nothing is converted at any boundary.

use crate::builtins;
use crate::bytecode::{CompiledFn, CompiledScript, Instr};
use crate::error::{ScriptError, Span};
use crate::host::{Host, DEFAULT_FUEL, DEFAULT_MAX_DEPTH};
use crate::ops;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One call frame: which function, where in it, and where this frame's
/// locals, operand stack and iterators start.
struct Frame {
    func: usize,
    pc: usize,
    base: usize,
    floor: usize,
    iter_base: usize,
}

/// A (re-usable) VM over one compiled program.
pub struct Vm {
    script: Arc<CompiledScript>,
    fuel_budget: u64,
    fuel: u64,
    max_depth: usize,
    /// Lines produced by `print(...)` during the last call.
    pub output: Vec<String>,
}

impl Vm {
    pub fn new(script: Arc<CompiledScript>) -> Vm {
        Vm {
            script,
            fuel_budget: DEFAULT_FUEL,
            fuel: DEFAULT_FUEL,
            max_depth: DEFAULT_MAX_DEPTH,
            output: Vec::new(),
        }
    }

    /// Override the fuel budget (per `call`).
    pub fn with_fuel(mut self, fuel: u64) -> Vm {
        self.fuel_budget = fuel;
        self
    }

    /// Override the call-depth limit (per `call`).
    pub fn with_max_depth(mut self, max_depth: usize) -> Vm {
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
        self.output.clear();
        let script = Arc::clone(&self.script);
        let span = Span::default();
        let Some(entry) = script.function_index(name) else {
            return Err(ScriptError::runtime(span, format!("unknown function `{name}`")));
        };
        let func = &script.funcs[entry];
        if func.params != args.len() {
            return Err(ScriptError::runtime(
                span,
                format!(
                    "function `{name}` expects {} argument(s), got {}",
                    func.params,
                    args.len()
                ),
            ));
        }
        self.run(host, &script, entry, args)
    }

    fn charge(&mut self, cost: u32) -> Result<(), ScriptError> {
        let cost = u64::from(cost);
        if self.fuel < cost {
            // Mirror the interpreter: a failed tick leaves fuel at zero, so
            // fuel_used() reports the full budget after an OutOfFuel trap.
            self.fuel = 0;
            return Err(ScriptError::OutOfFuel);
        }
        self.fuel -= cost;
        Ok(())
    }

    fn run(
        &mut self,
        host: &mut dyn Host,
        script: &CompiledScript,
        entry: usize,
        args: Vec<Value>,
    ) -> Result<Value, ScriptError> {
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        // Whether a slot has been assigned yet is tracked beside the slots,
        // not inside them: loading an unassigned one raises "unknown
        // variable", and no sentinel value exists for a script to observe.
        // (`Vec<Option<Value>>` is the same size through the tag niche but
        // measured ~1.7x slower on pure interpretation — see DESIGN.md §14.)
        let mut locals: Vec<Value> = Vec::with_capacity(16);
        let mut assigned: Vec<bool> = Vec::with_capacity(16);
        let mut iters: Vec<std::vec::IntoIter<Value>> = Vec::new();
        // Suspended callers only; the running frame lives in the locals
        // below so the dispatch loop never re-indexes the frame stack.
        let mut frames: Vec<Frame> = Vec::with_capacity(8);
        let mut fidx = entry;
        let mut func: &CompiledFn = &script.funcs[entry];
        let mut pc: usize = 0;
        let mut base: usize = 0;
        let mut floor: usize = 0;
        let mut iter_base: usize = 0;

        assigned.resize(args.len(), true);
        locals.extend(args);
        locals.resize(func.n_slots, Value::Null);
        assigned.resize(func.n_slots, false);

        loop {
            let ip = pc;
            pc += 1;
            let cost = func.costs[ip];
            if cost != 0 {
                self.charge(cost)?;
            }
            match &func.code[ip] {
                Instr::Const(i) => stack.push(func.consts[*i as usize].clone()),
                Instr::LoadSlot(s) => {
                    let slot = base + *s as usize;
                    if !assigned[slot] {
                        return Err(unknown_variable(func, *s, func.spans[ip]));
                    }
                    stack.push(locals[slot].clone());
                }
                Instr::StoreSlot(s) => {
                    let slot = base + *s as usize;
                    locals[slot] = stack.pop().expect("store with empty stack");
                    assigned[slot] = true;
                }
                Instr::StoreChecked(s) => {
                    let v = stack.pop().expect("store with empty stack");
                    let slot = base + *s as usize;
                    if !assigned[slot] {
                        return Err(ScriptError::runtime(
                            func.spans[ip],
                            format!(
                                "assignment to undeclared variable `{}`",
                                func.slot_names[*s as usize]
                            ),
                        ));
                    }
                    locals[slot] = v;
                }
                Instr::Pop => {
                    stack.pop();
                }
                Instr::Fuel => {}
                Instr::MakeList(n) => {
                    let items = stack.split_off(stack.len() - *n as usize);
                    stack.push(Value::from(items));
                }
                Instr::MakeMap(k) => {
                    let keys = &func.keysets[*k as usize];
                    let values = stack.split_off(stack.len() - keys.len());
                    let map: BTreeMap<String, Value> = keys.iter().cloned().zip(values).collect();
                    stack.push(Value::from(map));
                }
                Instr::ReadIndex => {
                    let i = stack.pop().expect("index with empty stack");
                    let b = stack.pop().expect("index with empty stack");
                    stack.push(ops::read_index(&b, &i, func.spans[ip])?);
                }
                Instr::StoreIndex(s) => {
                    let span = func.spans[ip];
                    let index = stack.pop().expect("store-index with empty stack");
                    let value = stack.pop().expect("store-index with empty stack");
                    let slot = base + *s as usize;
                    if !assigned[slot] {
                        return Err(unknown_variable(func, *s, span));
                    }
                    ops::assign_index(&mut locals[slot], &index, value, span)?;
                }
                Instr::Neg => {
                    let v = stack.pop().expect("neg with empty stack");
                    stack.push(ops::negate(v, func.spans[ip])?);
                }
                Instr::Not => {
                    let v = stack.pop().expect("not with empty stack");
                    stack.push(Value::Bool(!v.truthy()));
                }
                Instr::ToBool => {
                    let v = stack.pop().expect("tobool with empty stack");
                    stack.push(Value::Bool(v.truthy()));
                }
                Instr::Bin(op) => {
                    let r = stack.pop().expect("binop with empty stack");
                    let l = stack.pop().expect("binop with empty stack");
                    stack.push(ops::binary(*op, &l, &r, func.spans[ip])?);
                }
                Instr::Jump(t) => pc = *t as usize,
                Instr::JumpIfFalse(t) => {
                    let v = stack.pop().expect("jump with empty stack");
                    if !v.truthy() {
                        pc = *t as usize;
                    }
                }
                Instr::AndJump(t) => {
                    let v = stack.pop().expect("jump with empty stack");
                    if !v.truthy() {
                        stack.push(Value::Bool(false));
                        pc = *t as usize;
                    }
                }
                Instr::OrJump(t) => {
                    let v = stack.pop().expect("jump with empty stack");
                    if v.truthy() {
                        stack.push(Value::Bool(true));
                        pc = *t as usize;
                    }
                }
                Instr::ForPrep => {
                    let iterable = stack.pop().expect("for with empty stack");
                    iters.push(ops::iterate(iterable, func.spans[ip])?.into_iter());
                }
                Instr::ForNext { slot, end } => {
                    let items = iters.last_mut().expect("for-next without iterator");
                    match items.next() {
                        Some(item) => {
                            // One tick per yielded item, exactly where the
                            // interpreter ticks before binding the loop var.
                            self.charge(1)?;
                            locals[base + *slot as usize] = item;
                            assigned[base + *slot as usize] = true;
                        }
                        None => {
                            iters.pop();
                            pc = *end as usize;
                        }
                    }
                }
                Instr::IterPop => {
                    iters.pop();
                }
                Instr::CallUser { func: callee, argc } => {
                    // Depth check before the arity check, like the
                    // interpreter's call_function -> call_function_frame.
                    if frames.len() + 1 >= self.max_depth {
                        return Err(ScriptError::RecursionLimit { depth: frames.len() + 1 });
                    }
                    let callee_fn = &script.funcs[*callee as usize];
                    let argc = *argc as usize;
                    if callee_fn.params != argc {
                        return Err(ScriptError::runtime(
                            func.spans[ip],
                            format!(
                                "function `{}` expects {} argument(s), got {}",
                                callee_fn.name, callee_fn.params, argc
                            ),
                        ));
                    }
                    let new_base = locals.len();
                    locals.resize(new_base + callee_fn.n_slots, Value::Null);
                    assigned.resize(new_base + callee_fn.n_slots, false);
                    for i in (0..argc).rev() {
                        locals[new_base + i] = stack.pop().expect("call with missing args");
                        assigned[new_base + i] = true;
                    }
                    frames.push(Frame { func: fidx, pc, base, floor, iter_base });
                    fidx = *callee as usize;
                    func = callee_fn;
                    pc = 0;
                    base = new_base;
                    floor = stack.len();
                    iter_base = iters.len();
                }
                Instr::Builtin { name, argc } => {
                    let at = stack.len() - *argc as usize;
                    let name = &func.strings[*name as usize];
                    let out = builtins::call(name, &stack[at..], func.spans[ip])?;
                    stack.truncate(at);
                    stack.push(out);
                }
                Instr::HostLlm { argc } => {
                    let span = func.spans[ip];
                    let values = stack.split_off(stack.len() - *argc as usize);
                    let prompt = values.first().and_then(|v| v.as_str()).ok_or_else(|| {
                        ScriptError::runtime(span, "call_llm expects a string prompt")
                    })?;
                    let response =
                        host.call_llm(prompt).map_err(|message| ScriptError::Host { message })?;
                    stack.push(Value::from(response));
                }
                Instr::HostModule { argc } => {
                    let span = func.spans[ip];
                    let values = stack.split_off(stack.len() - *argc as usize);
                    let [module, input] = values.as_slice() else {
                        return Err(ScriptError::runtime(
                            span,
                            "call_module expects (name, input)",
                        ));
                    };
                    let module = module.as_str().ok_or_else(|| {
                        ScriptError::runtime(span, "module name must be a string")
                    })?;
                    let out = host
                        .call_module(module, input.clone())
                        .map_err(|message| ScriptError::Host { message })?;
                    stack.push(out);
                }
                Instr::HostTool { argc } => {
                    let span = func.spans[ip];
                    let values = stack.split_off(stack.len() - *argc as usize);
                    let tool = values.first().and_then(|v| v.as_str()).ok_or_else(|| {
                        ScriptError::runtime(span, "call_tool expects a tool name")
                    })?;
                    let out = host
                        .call_tool(tool, &values[1..])
                        .map_err(|message| ScriptError::Host { message })?;
                    stack.push(out);
                }
                Instr::Print { argc } => {
                    let values = stack.split_off(stack.len() - *argc as usize);
                    let line = values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
                    self.output.push(line);
                    stack.push(Value::Null);
                }
                Instr::Mutate { op, slot, argc, indexed } => {
                    let span = func.spans[ip];
                    let index = if *indexed {
                        Some(stack.pop().expect("mutate with empty stack"))
                    } else {
                        None
                    };
                    let rest = stack.split_off(stack.len() - *argc as usize);
                    if !assigned[base + *slot as usize] {
                        return Err(unknown_variable(func, *slot, span));
                    }
                    let container = &mut locals[base + *slot as usize];
                    let target: &mut Value = match &index {
                        None => container,
                        Some(i) => ops::index_mut(container, i, span)?,
                    };
                    stack.push(ops::mutate(*op, target, &rest, span)?);
                }
                Instr::Fail(m) => {
                    return Err(ScriptError::runtime(
                        func.spans[ip],
                        func.strings[*m as usize].clone(),
                    ));
                }
                Instr::Ret => {
                    let value = stack.pop().expect("return with empty stack");
                    locals.truncate(base);
                    assigned.truncate(base);
                    stack.truncate(floor);
                    iters.truncate(iter_base);
                    match frames.pop() {
                        None => return Ok(value),
                        Some(parent) => {
                            fidx = parent.func;
                            func = &script.funcs[fidx];
                            pc = parent.pc;
                            base = parent.base;
                            floor = parent.floor;
                            iter_base = parent.iter_base;
                            stack.push(value);
                        }
                    }
                }
            }
        }
    }
}

fn unknown_variable(func: &CompiledFn, slot: u32, span: Span) -> ScriptError {
    ScriptError::runtime(span, format!("unknown variable `{}`", func.slot_names[slot as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    // The parity tests below run the tree-walking oracle next to the VM.
    use crate::{compile, parse, Interpreter, NoHost};

    fn compile_src(src: &str) -> Arc<CompiledScript> {
        Arc::new(compile(&parse(src).unwrap()))
    }

    fn run(src: &str, func: &str, args: Vec<Value>) -> Result<Value, ScriptError> {
        Vm::new(compile_src(src)).call(&mut NoHost, func, args)
    }

    fn run1(src: &str) -> Value {
        run(src, "main", vec![]).unwrap()
    }

    /// Run one program through interpreter and VM and require identical
    /// results, errors, fuel use, and print output.
    fn assert_parity(src: &str) {
        let program = parse(src).unwrap();
        let mut interp = Interpreter::new(&program);
        let i = interp.call(&mut NoHost, "main", vec![]);
        let mut vm = Vm::new(Arc::new(compile(&program)));
        let v = vm.call(&mut NoHost, "main", vec![]);
        assert_eq!(i, v, "result parity for {src:?}");
        assert_eq!(interp.fuel_used(), vm.fuel_used(), "fuel parity for {src:?}");
        assert_eq!(interp.output, vm.output, "output parity for {src:?}");
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
        assert_eq!(run1("fn main() { return false && 1 / 0 == 1; }"), Value::Bool(false));
        assert_eq!(run1("fn main() { return true || 1 / 0 == 1; }"), Value::Bool(true));
    }

    #[test]
    fn variables_and_assignment() {
        assert_eq!(run1("fn main() { let x = 1; x = x + 5; return x; }"), Value::Int(6));
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
        assert_eq!(run1(r#"fn main() { let m = {}; return m["nope"]; }"#), Value::Null);
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
        assert_eq!(
            run1(r#"fn main() { let m = {"xs": []}; push(m["xs"], 7); return m["xs"][0]; }"#),
            Value::Int(7)
        );
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
    fn break_leaves_a_for_loop_cleanly() {
        // A `break` inside `for` must pop the iterator so an enclosing loop's
        // iteration state is untouched.
        assert_eq!(
            run1(
                "fn main() { let s = 0; for x in [1, 2] { for y in [10, 20, 30] { if y == 20 { break; } s = s + y; } s = s + x; } return s; }"
            ),
            Value::Int(23)
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
        let script = compile_src("fn main() { while true { } return 1; }");
        let mut vm = Vm::new(script).with_fuel(10_000);
        let err = vm.call(&mut NoHost, "main", vec![]);
        assert_eq!(err, Err(ScriptError::OutOfFuel));
        // Tick-exact with the tree-walker: the full budget reads as used.
        assert_eq!(vm.fuel_used(), 10_000);
    }

    #[test]
    fn unbounded_recursion_traps_instead_of_overflowing_the_stack() {
        let script = compile_src("fn f(n) { return f(n + 1); } fn main() { return f(0); }");
        let mut vm = Vm::new(script);
        let err = vm.call(&mut NoHost, "main", vec![]);
        assert_eq!(err, Err(ScriptError::RecursionLimit { depth: DEFAULT_MAX_DEPTH }));
        assert_eq!(err.unwrap_err().kind(), "recursion");
    }

    #[test]
    fn depth_resets_between_calls_and_legal_recursion_fits() {
        let src = r#"
            fn down(n) { if n == 0 { return 0; } return down(n - 1); }
            fn main() { return down(40); }
        "#;
        let script = compile_src(src);
        let mut vm = Vm::new(Arc::clone(&script));
        for _ in 0..5 {
            assert_eq!(vm.call(&mut NoHost, "main", vec![]).unwrap(), Value::Int(0));
        }
        let mut tight = Vm::new(script).with_max_depth(16);
        assert_eq!(
            tight.call(&mut NoHost, "main", vec![]),
            Err(ScriptError::RecursionLimit { depth: 16 })
        );
    }

    #[test]
    fn fuel_resets_between_calls() {
        let script = compile_src("fn main() { return 1; }");
        let mut vm = Vm::new(script).with_fuel(100);
        for _ in 0..10 {
            assert_eq!(vm.call(&mut NoHost, "main", vec![]).unwrap(), Value::Int(1));
        }
    }

    #[test]
    fn print_collects_output() {
        let script = compile_src(r#"fn main() { print("x =", 1); print([2]); return null; }"#);
        let mut vm = Vm::new(script);
        vm.call(&mut NoHost, "main", vec![]).unwrap();
        assert_eq!(vm.output, vec!["x = 1", "[2]"]);
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
        let result = Vm::new(compile_src(src)).call(&mut EchoHost, "main", vec![]).unwrap();
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

    #[test]
    fn fuel_accounting_matches_the_interpreter_tick_for_tick() {
        for src in [
            "fn main() { return 1 + 2 * 3; }",
            "fn main() { let s = 0; let i = 0; while i < 50 { i = i + 1; s = s + i; } return s; }",
            "fn main() { let s = 0; for x in [1, 2, 3, 4, 5] { s = s + x; } return s; }",
            "fn main() { let s = 0; for x in [1, 2, 3] { if x == 2 { continue; } s = s + x; } return s; }",
            "fn main() { for x in [1, 2, 3] { if x == 2 { break; } } return 0; }",
            "fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); } fn main() { return fib(12); }",
            r#"fn main() { let m = {"a": 1, "b": 2}; let out = []; for k in m { push(out, m[k]); } return out; }"#,
            "fn main() { return false && 1 / 0 == 1; }",
            "fn main() { return true || 1 / 0 == 1; }",
            r#"fn main() { print("a", 1); print([1, 2.0, "x"]); return null; }"#,
            "fn main() { let xs = [5, 3, 1]; return join(sort(xs), \"-\"); }",
            "fn main() { return 1 / 0; }",
            "fn main() { let xs = [1]; return xs[9]; }",
            "fn main() { while true { } return 0; }",
            "fn f(n) { return f(n + 1); } fn main() { return f(0); }",
        ] {
            let program = parse(src).unwrap();
            let mut interp = Interpreter::new(&program).with_fuel(5_000);
            let i = interp.call(&mut NoHost, "main", vec![]);
            let mut vm = Vm::new(Arc::new(compile(&program))).with_fuel(5_000);
            let v = vm.call(&mut NoHost, "main", vec![]);
            assert_eq!(i, v, "result parity for {src:?}");
            assert_eq!(interp.fuel_used(), vm.fuel_used(), "fuel parity for {src:?}");
            assert_eq!(interp.output, vm.output, "output parity for {src:?}");
        }
    }

    #[test]
    fn error_messages_match_the_interpreter() {
        for src in [
            "fn main() { return 1 / 0; }",
            "fn main() { return nope; }",
            "fn main() { return nope(); }",
            "fn main() { y = 3; return 0; }",
            "fn main() { return -\"x\"; }",
            "fn main() { return 1 < \"a\"; }",
            "fn main() { return [1] - 2; }",
            "fn main() { return {} + 1; }",
            "fn main() { let xs = [1]; return xs[5]; }",
            "fn main() { let s = \"ab\"; return s[7]; }",
            "fn main() { return 3[0]; }",
            "fn main() { let m = {}; push(m, 1); return 0; }",
            "fn main() { let xs = []; insert(xs, \"k\", 1); return 0; }",
            "fn main() { push([1], 2); return 0; }",
            "fn main() { let m = {}; push(m[\"k\"], 1); return 0; }",
            "fn main() { let xs = []; push(xs); return 0; }",
            "fn main() { for x in 3 { } return 0; }",
            "fn main() { let m = {}; m[0] = 1; return 0; }",
            "fn f(a, b) { return a; } fn main() { return f(1); }",
            "fn main() { return len(); }",
            "fn main() { return call_module(\"m\"); }",
            "fn main() { return call_llm(1); }",
            "fn main() { return call_tool(1); }",
        ] {
            let program = parse(src).unwrap();
            let i = Interpreter::new(&program).call(&mut NoHost, "main", vec![]);
            let v = Vm::new(Arc::new(compile(&program))).call(&mut NoHost, "main", vec![]);
            let ie = i.expect_err("interpreter should error");
            let ve = v.expect_err("vm should error");
            assert_eq!(ie.to_string(), ve.to_string(), "message parity for {src:?}");
        }
    }

    #[test]
    fn parity_on_structured_workloads() {
        assert_parity(
            r#"
            fn clean(rec) {
                let out = {};
                for k in rec {
                    let v = rec[k];
                    if typeof(v) == "str" { insert(out, k, trim(v)); }
                    if typeof(v) != "str" { insert(out, k, v); }
                }
                return out;
            }
            fn main() {
                let recs = [{"name": "  a  ", "n": 1}, {"name": "b ", "n": 2}];
                let cleaned = [];
                for r in recs { push(cleaned, clean(r)); }
                return cleaned;
            }
            "#,
        );
        assert_parity(
            r#"
            fn main() {
                let acc = [];
                let i = 0;
                while i < 20 {
                    if i % 3 == 0 { push(acc, i * i); }
                    i = i + 1;
                }
                return join(acc, ",");
            }
            "#,
        );
    }
}
