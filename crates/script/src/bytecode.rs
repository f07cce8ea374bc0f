//! The compact instruction stream the compiler lowers a [`crate::Program`]
//! into and the VM executes.
//!
//! Design (after the Rune/Ketos lineage of Rust bytecode interpreters):
//!
//! * **Constant pool** — literals are materialized once at compile time into
//!   [`CompiledFn::consts`] and pushed by index, instead of being re-built
//!   from the AST on every evaluation.
//! * **Slot-indexed locals** — every identifier a function touches is
//!   resolved to a dense slot index at compile time; the VM indexes a flat
//!   locals array where the tree-walker hashes a `HashMap<String, Value>`
//!   per access. Slots start *undefined* (not `null`), so "unknown variable"
//!   and "assignment to undeclared variable" keep their runtime meaning —
//!   [`CompiledFn::slot_names`] maps back for the error message.
//! * **Explicit call frames** — `Call`/`Ret` push and pop frames on a VM
//!   frame stack instead of recursing on the host stack, so the recursion
//!   trap is a bounds check, not a guard against a host stack overflow.
//! * **Fuel side table** — [`CompiledFn::costs`] carries, per instruction,
//!   the number of interpreter ticks that instruction accounts for. The
//!   compiler attaches each AST node's one-tick charge to the first
//!   instruction emitted for that node, so the VM's fuel accounting is
//!   tick-for-tick identical to the tree-walker's (see `compile.rs` for the
//!   pending-cost discipline and the loop-head flush rule).
//!
//! Instructions use `u32` operands throughout: function and constant indices,
//! jump targets (absolute instruction offsets within the function), and
//! argument counts.

use crate::error::Span;
use crate::value::Value;
use std::collections::HashMap;

/// The mutating special forms (`push`/`pop`/`insert`/`delete`), which operate
/// on an lvalue rather than an evaluated argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutOp {
    Push,
    Pop,
    Insert,
    Delete,
}

impl MutOp {
    pub fn name(&self) -> &'static str {
        match self {
            MutOp::Push => "push",
            MutOp::Pop => "pop",
            MutOp::Insert => "insert",
            MutOp::Delete => "delete",
        }
    }

    pub fn from_name(name: &str) -> Option<MutOp> {
        match name {
            "push" => Some(MutOp::Push),
            "pop" => Some(MutOp::Pop),
            "insert" => Some(MutOp::Insert),
            "delete" => Some(MutOp::Delete),
            _ => None,
        }
    }
}

/// Binary operator subset the `Bin` instruction dispatches on (`&&`/`||` are
/// compiled to jumps and never reach it).
pub use crate::ast::BinOp;

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push `consts[i]`.
    Const(u32),
    /// Push `locals[slot]`; trap if the slot is still undefined.
    LoadSlot(u32),
    /// Pop into `locals[slot]` (a `let`: declares unconditionally).
    StoreSlot(u32),
    /// Pop into `locals[slot]`, trapping if the slot was never declared
    /// (a bare `name = value` assignment).
    StoreChecked(u32),
    /// Pop and discard (expression statements).
    Pop,
    /// No-op carrying only its fuel cost: emitted when a pending charge must
    /// be flushed before a loop-head label so back-edges do not re-pay it.
    Fuel,
    /// Pop `n` values, push a list of them (in evaluation order).
    MakeList(u32),
    /// Pop `keysets[i].len()` values, push a map pairing them with the keys
    /// (insertion order, later duplicates overwriting — BTreeMap semantics).
    MakeMap(u32),
    /// Pop index, pop base, push `base[index]`.
    ReadIndex,
    /// Pop index, pop value, store into `locals[slot][index]`.
    StoreIndex(u32),
    /// Pop, push arithmetic negation.
    Neg,
    /// Pop, push logical negation of truthiness.
    Not,
    /// Pop, push `Bool(truthy)` — the tail of a short-circuit chain.
    ToBool,
    /// Pop right, pop left, push `left op right`.
    Bin(BinOp),
    /// Unconditional jump to an absolute offset.
    Jump(u32),
    /// Pop; jump if falsy.
    JumpIfFalse(u32),
    /// Pop; if falsy push `false` and jump (short-circuit `&&`).
    AndJump(u32),
    /// Pop; if truthy push `true` and jump (short-circuit `||`).
    OrJump(u32),
    /// Pop the iterable, materialize its items, push an iterator state.
    ForPrep,
    /// Yield the next item into `locals[slot]` (charging one tick per item),
    /// or pop the iterator and jump to `end` when exhausted.
    ForNext { slot: u32, end: u32 },
    /// Pop the innermost iterator (a `break` leaving a `for` loop).
    IterPop,
    /// Call a user function by index with `argc` stack arguments.
    CallUser { func: u32, argc: u32 },
    /// Call a named builtin with `argc` stack arguments (dispatches through
    /// the shared `builtins::call` so semantics cannot diverge).
    Builtin { name: u32, argc: u32 },
    /// `call_llm(...)` through the host bridge.
    HostLlm { argc: u32 },
    /// `call_module(...)` through the host bridge.
    HostModule { argc: u32 },
    /// `call_tool(...)` through the host bridge.
    HostTool { argc: u32 },
    /// `print(...)`: pop `argc` values, append one joined line to the output.
    Print { argc: u32 },
    /// A mutating special form against `locals[slot]`, optionally through one
    /// index level (the index is on top of the stack when `indexed`).
    Mutate { op: MutOp, slot: u32, argc: u32, indexed: bool },
    /// Raise a runtime error with message `strings[i]` (compile-time-known
    /// failures that must still fire *after* argument evaluation).
    Fail(u32),
    /// Pop the return value and the current frame.
    Ret,
}

/// One compiled function.
#[derive(Debug, Clone)]
pub struct CompiledFn {
    pub name: String,
    /// Parameter count; parameters occupy slots `0..params`.
    pub params: usize,
    /// Total local slots (parameters included).
    pub n_slots: usize,
    pub code: Vec<Instr>,
    /// Per-instruction fuel cost (ticks), parallel to `code`.
    pub costs: Vec<u32>,
    /// Per-instruction source span for error reporting, parallel to `code`.
    pub spans: Vec<Span>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Builtin names and compile-time error messages.
    pub strings: Vec<String>,
    /// Key lists for map literals.
    pub keysets: Vec<Vec<String>>,
    /// Slot index → identifier, for runtime error messages.
    pub slot_names: Vec<String>,
}

/// A whole compiled program: the unit the LLMGC layer caches and shares
/// across invocations (it is `Send + Sync`; values use `Arc` internally).
#[derive(Debug, Clone)]
pub struct CompiledScript {
    pub funcs: Vec<CompiledFn>,
    by_name: HashMap<String, usize>,
}

impl CompiledScript {
    pub(crate) fn new(funcs: Vec<CompiledFn>, by_name: HashMap<String, usize>) -> CompiledScript {
        CompiledScript { funcs, by_name }
    }

    /// Index of a function by name (first declaration wins, matching
    /// [`crate::Program::function`]).
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Total instructions across all functions (bench/introspection).
    pub fn instruction_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}
