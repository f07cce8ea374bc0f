//! # lingua-script — MangaScript
//!
//! A small, dynamically-typed language. In the Lingua Manga reproduction
//! this is the language that **LLM-generated code (LLMGC) modules** are
//! written in: the simulated LLM emits MangaScript programs, the
//! `lingua-core` Validator executes them on test cases, observes real
//! failures, and drives the suggest-and-regenerate repair loop from §3.2 of
//! the paper.
//!
//! Design goals:
//!
//! * **Real execution** — programs compile once to bytecode ([`compile()`])
//!   and run on the [`Vm`] under a *fuel* budget, so buggy generated code
//!   (infinite loops included) is safely bounded; fuel exhaustion is the
//!   paper's validation "timeout".
//! * **One value** — [`Value`] is the only runtime representation: inline
//!   scalars, `Arc`-shared strings/lists/maps with copy-on-write mutation.
//!   The VM, the builtins and the [`Host`] bridge all take and return it,
//!   so crossing any of those boundaries is a refcount bump.
//! * **Host bridge** — programs can `call_llm(prompt)`, `call_module(name,
//!   input)`, and `call_tool(name, args...)`, which is how LLMGC modules use
//!   the LLM as an external tool and compose with other modules (§3.1).
//! * **Printable ASTs** — [`pretty`] renders any program back to source, so
//!   generated code is inspectable and `parse ∘ pretty` is the identity
//!   (property-tested).
//! * **A differential oracle** — the tree-walking [`Interpreter`] stays in
//!   the crate as the reference the VM is tested against (same results,
//!   errors, fuel ticks and host-call order); nothing in production runs it.
//!
//! ## Example
//!
//! ```
//! use lingua_script::{compile, parse, NoHost, Value, Vm};
//! use std::sync::Arc;
//!
//! let program = parse(r#"
//!     fn double_positive(xs) {
//!         let out = [];
//!         for x in xs {
//!             if x > 0 { push(out, x * 2); }
//!         }
//!         return out;
//!     }
//! "#).unwrap();
//! let mut vm = Vm::new(Arc::new(compile(&program)));
//! let input = Value::from(vec![Value::Int(3), Value::Int(-1), Value::Int(5)]);
//! let result = vm.call(&mut NoHost, "double_positive", vec![input]).unwrap();
//! assert_eq!(result, Value::from(vec![Value::Int(6), Value::Int(10)]));
//! ```

pub mod ast;
mod builtins;
mod bytecode;
pub mod compile;
pub mod error;
mod host;
mod interp;
mod lexer;
mod ops;
mod parser;
pub mod pretty;
mod token;
mod value;
mod vm;

pub use ast::{BinOp, Expr, FnDecl, Program, Stmt, UnOp};
pub use bytecode::CompiledScript;
pub use compile::{compile, CompileCache};
pub use error::{ScriptError, Span};
pub use host::{Host, NoHost, DEFAULT_FUEL};
pub use interp::Interpreter;
pub use value::Value;
pub use vm::Vm;

/// Parse MangaScript source into a [`Program`].
pub fn parse(source: &str) -> Result<Program, ScriptError> {
    let tokens = lexer::lex(source)?;
    parser::parse_tokens(&tokens)
}
