//! AST → bytecode lowering, plus the process-wide compile cache.
//!
//! ## Fuel parity (the load-bearing invariant)
//!
//! The tree-walking interpreter charges one fuel tick at every `run_stmt`
//! entry, every `eval` entry (i.e. every expression node), once per `while`
//! iteration before the condition, and once per `for` item. The VM must be
//! tick-for-tick identical — `fuel_used()` and the exact trap point are
//! pinned by tests — so the compiler uses a *pending-cost accumulator*:
//!
//! * visiting a node charges one pending tick (pre-order, exactly where the
//!   interpreter's `tick()` sits);
//! * every emitted instruction absorbs the pending ticks into its cost slot,
//!   so consecutive ticks with no observable effect between them (parent
//!   node + first child) merge into one batched fuel check;
//! * before binding any jump-target label the pending count must be zero —
//!   loop heads flush it into an explicit [`Instr::Fuel`] no-op so back
//!   edges do not re-pay the loop statement's own entry tick.
//!
//! Batching is observably equivalent because nothing (no host call, no
//! mutation, no error with a different trap kind) happens between the merged
//! ticks, and a failed batched check zeroes the fuel counter exactly like a
//! failed single tick does.
//!
//! ## Name resolution
//!
//! Calls are resolved at compile time in the interpreter's exact order:
//! mutating special forms first, then user functions (which shadow the host
//! bridge and builtins), then `call_llm`/`call_module`/`call_tool`/`print`,
//! then the builtin table (unknown names fall through to the builtin
//! dispatcher at runtime, which raises the same "unknown function" error the
//! interpreter does). Compile-time-detectable failures — a mutating form
//! with no arguments or a non-lvalue target — are emitted as [`Instr::Fail`]
//! *after* the argument code, preserving evaluation order and host-call
//! sequences on the error path.

use crate::ast::*;
use crate::bytecode::{CompiledFn, CompiledScript, Instr, MutOp};
use crate::error::Span;
use crate::value::Value;
use lingua_ml::fnv::fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Compile a parsed program. Compilation is total: every name resolves to an
/// instruction (unknown ones to the runtime-failing builtin dispatch), so
/// there is no compile-error surface beyond what `parse` already rejected.
pub fn compile(program: &Program) -> CompiledScript {
    let mut by_name: HashMap<String, usize> = HashMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        by_name.entry(f.name.clone()).or_insert(i);
    }
    let funcs =
        program.functions.iter().map(|f| FnCompiler::new(program, &by_name, f).run()).collect();
    CompiledScript::new(funcs, by_name)
}

/// Loop context: where `continue` and `break` jump, and whether `break` must
/// pop an active iterator first.
struct LoopCtx {
    head: usize,
    end: usize,
    is_for: bool,
}

struct FnCompiler<'p> {
    program: &'p Program,
    by_name: &'p HashMap<String, usize>,
    decl: &'p FnDecl,
    code: Vec<Instr>,
    costs: Vec<u32>,
    spans: Vec<Span>,
    pending: u32,
    consts: Vec<Value>,
    strings: Vec<String>,
    keysets: Vec<Vec<String>>,
    slot_names: Vec<String>,
    slot_idx: HashMap<String, u32>,
    loops: Vec<LoopCtx>,
    /// Jump sites awaiting a label position: (instruction index, label id).
    patches: Vec<(usize, usize)>,
    labels: Vec<Option<u32>>,
}

impl<'p> FnCompiler<'p> {
    fn new(program: &'p Program, by_name: &'p HashMap<String, usize>, decl: &'p FnDecl) -> Self {
        let mut c = FnCompiler {
            program,
            by_name,
            decl,
            code: Vec::new(),
            costs: Vec::new(),
            spans: Vec::new(),
            pending: 0,
            consts: Vec::new(),
            strings: Vec::new(),
            keysets: Vec::new(),
            slot_names: Vec::new(),
            slot_idx: HashMap::new(),
            loops: Vec::new(),
            patches: Vec::new(),
            labels: Vec::new(),
        };
        for p in &decl.params {
            c.slot(p);
        }
        c
    }

    fn run(mut self) -> CompiledFn {
        // Pre-pass: allocate a slot for every identifier the body touches,
        // so codegen can resolve reads of never-declared names to a slot
        // that is still undefined at runtime (the interpreter's "unknown
        // variable" error).
        for s in &self.decl.body {
            self.collect_stmt_slots(s);
        }
        let body: &[Stmt] = &self.decl.body;
        self.stmts(body);
        // Implicit `return null` — the interpreter charges nothing for it.
        debug_assert_eq!(self.pending, 0, "statements must flush their pending fuel");
        let null = self.const_idx(Value::Null);
        self.emit(Instr::Const(null), Span::default());
        self.emit(Instr::Ret, Span::default());
        for (pos, label) in std::mem::take(&mut self.patches) {
            let target = self.labels[label].expect("label bound before patch");
            match &mut self.code[pos] {
                Instr::Jump(t)
                | Instr::JumpIfFalse(t)
                | Instr::AndJump(t)
                | Instr::OrJump(t)
                | Instr::ForNext { end: t, .. } => *t = target,
                other => unreachable!("patched a non-jump instruction {other:?}"),
            }
        }
        CompiledFn {
            name: self.decl.name.clone(),
            params: self.decl.params.len(),
            n_slots: self.slot_names.len(),
            code: self.code,
            costs: self.costs,
            spans: self.spans,
            consts: self.consts,
            strings: self.strings,
            keysets: self.keysets,
            slot_names: self.slot_names,
        }
    }

    // -- slot collection ---------------------------------------------------

    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.slot_idx.get(name) {
            return i;
        }
        let i = self.slot_names.len() as u32;
        self.slot_names.push(name.to_string());
        self.slot_idx.insert(name.to_string(), i);
        i
    }

    fn collect_stmt_slots(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { name, value, .. } => {
                self.collect_expr_slots(value);
                self.slot(name);
            }
            Stmt::Assign { target, value, .. } => {
                self.collect_expr_slots(value);
                match target {
                    LValue::Var(name) => {
                        self.slot(name);
                    }
                    LValue::Index(name, idx) => {
                        self.collect_expr_slots(idx);
                        self.slot(name);
                    }
                }
            }
            Stmt::Expr(e) => self.collect_expr_slots(e),
            Stmt::If { cond, then_branch, else_branch, .. } => {
                self.collect_expr_slots(cond);
                for s in then_branch {
                    self.collect_stmt_slots(s);
                }
                for s in else_branch {
                    self.collect_stmt_slots(s);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.collect_expr_slots(cond);
                for s in body {
                    self.collect_stmt_slots(s);
                }
            }
            Stmt::For { var, iterable, body, .. } => {
                self.collect_expr_slots(iterable);
                self.slot(var);
                for s in body {
                    self.collect_stmt_slots(s);
                }
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.collect_expr_slots(e);
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) => {}
        }
    }

    fn collect_expr_slots(&mut self, e: &Expr) {
        match e {
            Expr::Null(_) | Expr::Bool(..) | Expr::Int(..) | Expr::Float(..) | Expr::Str(..) => {}
            Expr::Var(name, _) => {
                self.slot(name);
            }
            Expr::List(items, _) => {
                for i in items {
                    self.collect_expr_slots(i);
                }
            }
            Expr::Map(pairs, _) => {
                for (_, v) in pairs {
                    self.collect_expr_slots(v);
                }
            }
            Expr::Unary(_, inner, _) => self.collect_expr_slots(inner),
            Expr::Binary(_, l, r, _) => {
                self.collect_expr_slots(l);
                self.collect_expr_slots(r);
            }
            Expr::Call(name, args, _) => {
                if MutOp::from_name(name).is_some() {
                    // The target lvalue's variable gets a slot; its index
                    // expression and the rest arguments are ordinary exprs.
                    let mut args_iter = args.iter();
                    if let Some(target) = args_iter.next() {
                        match target {
                            Expr::Var(v, _) => {
                                self.slot(v);
                            }
                            Expr::Index(base, idx, _) => {
                                if let Expr::Var(v, _) = &**base {
                                    self.slot(v);
                                    self.collect_expr_slots(idx);
                                } else {
                                    // Invalid target: compiled to Fail; its
                                    // subtrees are never evaluated.
                                }
                            }
                            other => self.collect_expr_slots(other),
                        }
                    }
                    for a in args_iter {
                        self.collect_expr_slots(a);
                    }
                } else {
                    for a in args {
                        self.collect_expr_slots(a);
                    }
                }
            }
            Expr::Index(base, idx, _) => {
                self.collect_expr_slots(base);
                self.collect_expr_slots(idx);
            }
        }
    }

    // -- emission helpers --------------------------------------------------

    fn charge(&mut self) {
        self.pending += 1;
    }

    fn emit(&mut self, instr: Instr, span: Span) {
        self.code.push(instr);
        self.costs.push(self.pending);
        self.spans.push(span);
        self.pending = 0;
    }

    /// Flush pending ticks into an explicit `Fuel` no-op. Required before
    /// binding a label a back edge jumps to, so re-entry does not re-charge
    /// ticks that belong to code before the loop.
    fn flush_pending(&mut self) {
        if self.pending > 0 {
            self.emit(Instr::Fuel, Span::default());
        }
    }

    fn label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, label: usize) {
        debug_assert_eq!(self.pending, 0, "flush pending fuel before binding a label");
        self.labels[label] = Some(self.code.len() as u32);
    }

    fn emit_jump(&mut self, make: impl FnOnce(u32) -> Instr, label: usize, span: Span) {
        self.patches.push((self.code.len(), label));
        self.emit(make(u32::MAX), span);
    }

    fn const_idx(&mut self, v: Value) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn string_idx(&mut self, s: impl Into<String>) -> u32 {
        self.strings.push(s.into());
        (self.strings.len() - 1) as u32
    }

    // -- statements --------------------------------------------------------

    fn stmts(&mut self, list: &[Stmt]) {
        for s in list {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.charge(); // run_stmt entry tick
        match s {
            Stmt::Let { name, value, .. } => {
                self.expr(value);
                let slot = self.slot(name);
                self.emit(Instr::StoreSlot(slot), Span::default());
            }
            Stmt::Assign { target, value, span } => match target {
                LValue::Var(name) => {
                    self.expr(value);
                    let slot = self.slot(name);
                    self.emit(Instr::StoreChecked(slot), *span);
                }
                LValue::Index(name, idx) => {
                    self.expr(value);
                    self.expr(idx);
                    let slot = self.slot(name);
                    self.emit(Instr::StoreIndex(slot), *span);
                }
            },
            Stmt::Expr(e) => {
                self.expr(e);
                self.emit(Instr::Pop, Span::default());
            }
            Stmt::If { cond, then_branch, else_branch, .. } => {
                self.expr(cond);
                let else_l = self.label();
                let end = self.label();
                self.emit_jump(Instr::JumpIfFalse, else_l, Span::default());
                self.stmts(then_branch);
                self.emit_jump(Instr::Jump, end, Span::default());
                self.bind(else_l);
                self.stmts(else_branch);
                self.bind(end);
            }
            Stmt::While { cond, body, .. } => {
                // The statement's own entry tick must not be re-paid by the
                // back edge: flush it before the loop head.
                self.flush_pending();
                let head_pos = self.code.len();
                let head = self.label();
                self.bind(head);
                self.charge(); // per-iteration tick, absorbed by the cond
                self.expr(cond);
                let end = self.label();
                self.emit_jump(Instr::JumpIfFalse, end, Span::default());
                self.loops.push(LoopCtx { head, end, is_for: false });
                self.stmts(body);
                self.loops.pop();
                self.emit(Instr::Jump(head_pos as u32), Span::default());
                self.bind(end);
            }
            Stmt::For { var, iterable, body, span } => {
                self.expr(iterable);
                self.emit(Instr::ForPrep, *span);
                let head_pos = self.code.len();
                let head = self.label();
                self.bind(head);
                let end = self.label();
                let slot = self.slot(var);
                self.patches.push((self.code.len(), end));
                self.emit(Instr::ForNext { slot, end: u32::MAX }, Span::default());
                self.loops.push(LoopCtx { head, end, is_for: true });
                self.stmts(body);
                self.loops.pop();
                self.emit(Instr::Jump(head_pos as u32), Span::default());
                self.bind(end);
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(e) => self.expr(e),
                    None => {
                        let null = self.const_idx(Value::Null);
                        self.emit(Instr::Const(null), Span::default());
                    }
                }
                self.emit(Instr::Ret, Span::default());
            }
            Stmt::Break(_) => match self.loops.last() {
                Some(ctx) => {
                    let (end, is_for) = (ctx.end, ctx.is_for);
                    if is_for {
                        self.emit(Instr::IterPop, Span::default());
                    }
                    self.emit_jump(Instr::Jump, end, Span::default());
                }
                // A top-level `break` falls out of the function: the
                // interpreter's Flow::Break reaches the frame and yields
                // null, exactly like running off the end of the body.
                None => {
                    let null = self.const_idx(Value::Null);
                    self.emit(Instr::Const(null), Span::default());
                    self.emit(Instr::Ret, Span::default());
                }
            },
            Stmt::Continue(_) => match self.loops.last() {
                Some(ctx) => {
                    let head = ctx.head;
                    self.emit_jump(Instr::Jump, head, Span::default());
                }
                None => {
                    let null = self.const_idx(Value::Null);
                    self.emit(Instr::Const(null), Span::default());
                    self.emit(Instr::Ret, Span::default());
                }
            },
        }
    }

    // -- expressions -------------------------------------------------------

    fn expr(&mut self, e: &Expr) {
        self.charge(); // eval entry tick
        match e {
            Expr::Null(_) => {
                let i = self.const_idx(Value::Null);
                self.emit(Instr::Const(i), Span::default());
            }
            Expr::Bool(b, _) => {
                let i = self.const_idx(Value::Bool(*b));
                self.emit(Instr::Const(i), Span::default());
            }
            Expr::Int(v, _) => {
                let i = self.const_idx(Value::Int(*v));
                self.emit(Instr::Const(i), Span::default());
            }
            Expr::Float(v, _) => {
                let i = self.const_idx(Value::Float(*v));
                self.emit(Instr::Const(i), Span::default());
            }
            Expr::Str(s, _) => {
                let i = self.const_idx(Value::from(s.as_str()));
                self.emit(Instr::Const(i), Span::default());
            }
            Expr::Var(name, span) => {
                let slot = self.slot(name);
                self.emit(Instr::LoadSlot(slot), *span);
            }
            Expr::List(items, _) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Instr::MakeList(items.len() as u32), Span::default());
            }
            Expr::Map(pairs, _) => {
                let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
                for (_, v) in pairs {
                    self.expr(v);
                }
                self.keysets.push(keys);
                self.emit(Instr::MakeMap((self.keysets.len() - 1) as u32), Span::default());
            }
            Expr::Unary(op, inner, span) => {
                self.expr(inner);
                match op {
                    UnOp::Neg => self.emit(Instr::Neg, *span),
                    UnOp::Not => self.emit(Instr::Not, *span),
                }
            }
            Expr::Binary(BinOp::And, l, r, _) => {
                self.expr(l);
                let end = self.label();
                self.emit_jump(Instr::AndJump, end, Span::default());
                self.expr(r);
                self.emit(Instr::ToBool, Span::default());
                self.bind(end);
            }
            Expr::Binary(BinOp::Or, l, r, _) => {
                self.expr(l);
                let end = self.label();
                self.emit_jump(Instr::OrJump, end, Span::default());
                self.expr(r);
                self.emit(Instr::ToBool, Span::default());
                self.bind(end);
            }
            Expr::Binary(op, l, r, span) => {
                self.expr(l);
                self.expr(r);
                self.emit(Instr::Bin(*op), *span);
            }
            Expr::Call(name, args, span) => self.call(name, args, *span),
            Expr::Index(base, idx, span) => {
                self.expr(base);
                self.expr(idx);
                self.emit(Instr::ReadIndex, *span);
            }
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], span: Span) {
        if let Some(op) = MutOp::from_name(name) {
            return self.mutating_call(op, args, span);
        }
        for a in args {
            self.expr(a);
        }
        // User-defined functions shadow the host bridge and builtins.
        if let Some(&func) = self.by_name.get(name) {
            debug_assert!(self.program.function(name).is_some());
            self.emit(Instr::CallUser { func: func as u32, argc: args.len() as u32 }, span);
            return;
        }
        let argc = args.len() as u32;
        match name {
            "call_llm" => self.emit(Instr::HostLlm { argc }, span),
            "call_module" => self.emit(Instr::HostModule { argc }, span),
            "call_tool" => self.emit(Instr::HostTool { argc }, span),
            "print" => self.emit(Instr::Print { argc }, span),
            // Known and unknown builtins alike dispatch through the shared
            // builtin table at runtime; unknown names raise its exact
            // "unknown function" error there.
            _ => {
                let n = self.string_idx(name);
                self.emit(Instr::Builtin { name: n, argc }, span);
            }
        }
    }

    fn mutating_call(&mut self, op: MutOp, args: &[Expr], span: Span) {
        let Some((target, rest)) = args.split_first() else {
            let m = self.string_idx(format!("{} expects a container argument", op.name()));
            self.emit(Instr::Fail(m), span);
            return;
        };
        // Rest arguments evaluate before the target resolves — including
        // before the "not an lvalue" error fires.
        for a in rest {
            self.expr(a);
        }
        let argc = rest.len() as u32;
        match target {
            Expr::Var(v, _) => {
                let slot = self.slot(v);
                self.emit(Instr::Mutate { op, slot, argc, indexed: false }, span);
            }
            Expr::Index(base, idx, _) => match &**base {
                Expr::Var(v, _) => {
                    self.expr(idx);
                    let slot = self.slot(v);
                    self.emit(Instr::Mutate { op, slot, argc, indexed: true }, span);
                }
                _ => {
                    let m = self.string_idx(format!(
                        "{} target must be a variable or `var[index]`",
                        op.name()
                    ));
                    self.emit(Instr::Fail(m), span);
                }
            },
            _ => {
                let m = self
                    .string_idx(format!("{} target must be a variable or `var[index]`", op.name()));
                self.emit(Instr::Fail(m), span);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compile cache
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct CacheEntry {
    script: Arc<CompiledScript>,
    compiles: u64,
    hits: u64,
}

/// A shared source-fingerprint → [`CompiledScript`] cache.
///
/// The LLMGC layer keys compilations by generation fingerprint: a candidate
/// program compiles once, the thousands of repeat executions per validator
/// cycle share the `Arc`, and a repaired program (different source) misses
/// and compiles exactly once more. Per-key hit/compile counters let tests
/// pin that contract.
#[derive(Debug, Default)]
pub struct CompileCache {
    inner: Mutex<HashMap<u64, CacheEntry>>,
}

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Fetch the compiled form of `source`, compiling `program` on a miss.
    /// Compilation happens under the lock, so a key compiles at most once.
    pub fn get_or_compile(&self, source: &str, program: &Program) -> Arc<CompiledScript> {
        let key = fingerprint(source);
        let mut inner = self.inner.lock().expect("compile cache poisoned");
        match inner.get_mut(&key) {
            Some(entry) => {
                entry.hits += 1;
                Arc::clone(&entry.script)
            }
            None => {
                let script = Arc::new(compile(program));
                inner.insert(key, CacheEntry { script: Arc::clone(&script), compiles: 1, hits: 0 });
                script
            }
        }
    }

    /// `(compiles, hits)` recorded for this source (0, 0 if never seen).
    pub fn stats(&self, source: &str) -> (u64, u64) {
        let key = fingerprint(source);
        let inner = self.inner.lock().expect("compile cache poisoned");
        inner.get(&key).map(|e| (e.compiles, e.hits)).unwrap_or((0, 0))
    }

    /// Number of distinct programs ever compiled.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("compile cache poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
