//! The host bridge and the execution limits both engines share.

use crate::value::Value;

/// The capabilities a running script gets from its embedding system.
///
/// In `lingua-core`, the executor implements `Host` so LLMGC modules can call
/// the (simulated) LLM, other modules in the pipeline, and registered external
/// tools — the composition §3.1 of the paper describes.
pub trait Host {
    /// `call_llm(prompt)` — ask the LLM for a free-text completion.
    fn call_llm(&mut self, prompt: &str) -> Result<String, String>;
    /// `call_module(name, input)` — invoke another module.
    fn call_module(&mut self, name: &str, input: Value) -> Result<Value, String>;
    /// `call_tool(name, args...)` — invoke a registered external tool.
    fn call_tool(&mut self, name: &str, args: &[Value]) -> Result<Value, String>;
}

/// A host that rejects all host calls — for pure scripts and tests.
pub struct NoHost;

impl Host for NoHost {
    fn call_llm(&mut self, _prompt: &str) -> Result<String, String> {
        Err("no LLM available in this context".into())
    }
    fn call_module(&mut self, _name: &str, _input: Value) -> Result<Value, String> {
        Err("no modules available in this context".into())
    }
    fn call_tool(&mut self, name: &str, _args: &[Value]) -> Result<Value, String> {
        Err(format!("no tool `{name}` available in this context"))
    }
}

/// Default fuel budget: generous for real modules, tight enough that an
/// accidental `while true {}` fails fast.
pub const DEFAULT_FUEL: u64 = 1_000_000;

/// Default call-depth limit. The tree-walking oracle recurses on the *host*
/// stack per script call, so unbounded script recursion would overflow the
/// host thread's stack and abort the process — unwinding never happens and
/// `catch_unwind` isolation upstream is useless against it. The VM keeps its
/// frames on the heap but traps at the same depth so the two stay
/// observationally identical. 64 frames is far deeper than any generated
/// module calls and far shallower than what a default thread stack absorbs.
pub(crate) const DEFAULT_MAX_DEPTH: usize = 64;
