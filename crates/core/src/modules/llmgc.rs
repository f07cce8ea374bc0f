//! LLMGC modules: LLM-generated MangaScript programs behind the module
//! interface (§3.1). The program really executes — compiled once to
//! bytecode and run on the `lingua-script` VM; the host bridge gives it
//! `call_llm`, `call_module`, and `call_tool`.

use crate::context::{ExecContext, HostBridge};
use crate::data::Data;
use crate::error::{CoreError, TrapKind};
use crate::modules::{Module, ModuleKind};
use lingua_llm_sim::{CodeGenSpec, GeneratedCode};
use lingua_script::{parse, CompileCache, CompiledScript, ScriptError, Vm};
use std::sync::{Arc, OnceLock};

/// Default interpreter fuel for one module invocation.
pub(super) const DEFAULT_FUEL: u64 = 2_000_000;

/// The process-wide compiled-program cache, keyed by source fingerprint.
/// Validator cycles execute one candidate thousands of times; every
/// execution shares the `Arc<CompiledScript>` compiled here exactly once,
/// and a repaired program (new source, new fingerprint) recompiles exactly
/// once. [`CompileCache::stats`] exposes per-key compile/hit counts so
/// tests can pin that invariant.
pub(super) fn compile_cache() -> &'static CompileCache {
    static CACHE: OnceLock<CompileCache> = OnceLock::new();
    CACHE.get_or_init(CompileCache::new)
}

/// Deadline→fuel conversion: how many interpreter ticks one millisecond of
/// remaining job deadline buys. Ticks are tens of nanoseconds of pure
/// interpretation, so 20k ticks/ms is conservative — a program cut by this
/// cap was going to blow its deadline anyway; the cap just stops it from
/// burning a worker for the rest of its (dead) allowance.
pub(super) const FUEL_PER_MS: u64 = 20_000;

/// A module whose body is LLM-generated code.
pub struct LlmgcModule {
    name: String,
    spec: CodeGenSpec,
    source: String,
    /// Bytecode compiled once per generation (shared through the global
    /// [`compile_cache`]); every invocation runs this, not the AST.
    compiled: Arc<CompiledScript>,
    entry: String,
    fuel: u64,
    /// Generation metadata for experiment introspection.
    pub generation: Option<GeneratedCode>,
}

impl LlmgcModule {
    /// Ask the context's LLM to generate the module's code now.
    pub fn generate(
        name: impl Into<String>,
        spec: CodeGenSpec,
        ctx: &ExecContext,
    ) -> Result<LlmgcModule, CoreError> {
        let generated = ctx.llm.generate_code(&spec);
        LlmgcModule::from_generated(name, spec, generated)
    }

    /// Wrap an already-generated program.
    pub(crate) fn from_generated(
        name: impl Into<String>,
        spec: CodeGenSpec,
        generated: GeneratedCode,
    ) -> Result<LlmgcModule, CoreError> {
        let mut module = LlmgcModule::from_source(name, spec, generated.source.as_str())?;
        module.generation = Some(generated);
        Ok(module)
    }

    /// Build from hand-supplied source (a user pasting code is also §3.1's
    /// "code snippets to optimize the code generation process").
    pub fn from_source(
        name: impl Into<String>,
        spec: CodeGenSpec,
        source: impl Into<String>,
    ) -> Result<LlmgcModule, CoreError> {
        let source = source.into();
        let compiled = load(&source)?;
        let entry = if spec.function_name.is_empty() {
            "process".to_string()
        } else {
            spec.function_name.clone()
        };
        Ok(LlmgcModule {
            name: name.into(),
            source,
            compiled,
            entry,
            fuel: DEFAULT_FUEL,
            spec,
            generation: None,
        })
    }

    pub fn with_fuel(mut self, fuel: u64) -> LlmgcModule {
        self.fuel = fuel;
        self
    }

    pub fn source(&self) -> &str {
        &self.source
    }

    pub fn spec(&self) -> &CodeGenSpec {
        &self.spec
    }

    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// Replace the program (used by the Validator's repair cycle). The new
    /// source carries a new fingerprint, so this is the one place a repair
    /// triggers a recompile.
    pub(crate) fn replace_program(&mut self, generated: GeneratedCode) -> Result<(), CoreError> {
        self.compiled = load(&generated.source)?;
        self.source = generated.source.clone();
        self.generation = Some(generated);
        Ok(())
    }
}

/// Parse `source` and fetch (or build) its bytecode from [`compile_cache`] —
/// the one path every constructor and the repair cycle load a program by.
fn load(source: &str) -> Result<Arc<CompiledScript>, CoreError> {
    let program = parse(source)?;
    Ok(compile_cache().get_or_compile(source, &program))
}

impl Module for LlmgcModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Llmgc
    }

    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError> {
        let script_input = input.to_script();
        // Map the job's remaining deadline onto the fuel budget: a runaway
        // generated program cannot outlive its job. When the cap bites and
        // the program runs dry, that is a DeadlineFuel trap (the job was too
        // slow) — distinct from OutOfFuel (the program too hungry).
        let mut fuel = self.fuel;
        let mut deadline_capped = false;
        if let Some(remaining) = ctx.cancel.remaining() {
            let cap = (remaining.as_millis() as u64).saturating_mul(FUEL_PER_MS).max(1);
            if cap < fuel {
                fuel = cap;
                deadline_capped = true;
            }
        }
        let mut vm = Vm::new(Arc::clone(&self.compiled)).with_fuel(fuel);
        let mut bridge = HostBridge { ctx };
        let result =
            vm.call(&mut bridge, &self.entry, vec![script_input]).map_err(|e| match e {
                ScriptError::OutOfFuel if deadline_capped => {
                    CoreError::Trap { module: self.name.clone(), trap: TrapKind::DeadlineFuel }
                }
                ScriptError::OutOfFuel => {
                    CoreError::Trap { module: self.name.clone(), trap: TrapKind::OutOfFuel }
                }
                ScriptError::RecursionLimit { .. } => {
                    CoreError::Trap { module: self.name.clone(), trap: TrapKind::Recursion }
                }
                // A host call refused because the job died (`call_llm`'s
                // `NoAnswer::Cancelled`): the job was cancelled, the program
                // did not fail.
                other => match (&other, bridge.ctx.cancel.status()) {
                    (ScriptError::Host { .. }, Some(reason)) => CoreError::Cancelled { reason },
                    _ => {
                        CoreError::Module { module: self.name.clone(), message: other.to_string() }
                    }
                },
            })?;
        Ok(Data::from_script(&result))
    }

    fn describe(&self) -> String {
        format!("llmgc module `{}`:\n{}", self.name, self.source)
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        // The generated program is immutable between repair cycles and each
        // invocation builds its own VM over the shared bytecode, so
        // replication bumps an `Arc` without re-running (or re-billing) code
        // generation — and without recompiling.
        Some(Box::new(LlmgcModule {
            name: self.name.clone(),
            spec: self.spec.clone(),
            source: self.source.clone(),
            compiled: Arc::clone(&self.compiled),
            entry: self.entry.clone(),
            fuel: self.fuel,
            generation: self.generation.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(4);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 4)))
    }

    fn spec(task: &str) -> CodeGenSpec {
        CodeGenSpec { task: task.into(), function_name: "process".into(), hints: vec![] }
    }

    #[test]
    fn hand_written_source_runs() {
        let mut ctx = ctx();
        let mut module = LlmgcModule::from_source(
            "doubler",
            spec("double every number"),
            "fn process(xs) { let out = []; for x in xs { push(out, x * 2); } return out; }",
        )
        .unwrap();
        let out = module.invoke(Data::List(vec![Data::Int(1), Data::Int(2)]), &mut ctx).unwrap();
        assert_eq!(out, Data::List(vec![Data::Int(2), Data::Int(4)]));
        assert_eq!(module.kind(), ModuleKind::Llmgc);
        assert!(module.describe().contains("fn process"));
    }

    #[test]
    fn generated_tokenizer_runs_end_to_end() {
        let mut ctx = ctx();
        let mut module =
            LlmgcModule::generate("tokenizer", spec("tokenize the text into words"), &ctx).unwrap();
        // The generation may carry a bug; either way the program must parse
        // and run (or fail with a module error, never panic).
        let result = module.invoke(Data::Str("Hello there world".into()), &mut ctx);
        match result {
            Ok(Data::List(tokens)) => assert!(!tokens.is_empty()),
            Ok(other) => panic!("unexpected output {other:?}"),
            Err(CoreError::Module { .. }) => {} // a buggy generation crashing is legitimate
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn scripts_reach_tools_through_the_bridge() {
        let mut ctx = ctx();
        ctx.tools.register_list("colors", vec!["red".into(), "blue".into()]);
        let mut module = LlmgcModule::from_source(
            "tool_user",
            spec("list colors"),
            r#"fn process(x) { return len(call_tool("colors")); }"#,
        )
        .unwrap();
        assert_eq!(module.invoke(Data::Null, &mut ctx).unwrap(), Data::Int(2));
    }

    #[test]
    fn a_script_mutating_a_tool_result_does_not_change_the_tool() {
        // `register_list` hands every caller the same `Arc`; a `push` onto it
        // must unshare the script's copy, not grow the registry's list.
        let mut ctx = ctx();
        ctx.tools.register_list("vocabulary", vec!["Sony".into(), "Canon".into()]);
        let mut module = LlmgcModule::from_source(
            "grower",
            spec("grow the vocabulary"),
            r#"fn process(x) { let v = call_tool("vocabulary"); push(v, "Nikon"); return len(v); }"#,
        )
        .unwrap();
        for _ in 0..3 {
            assert_eq!(module.invoke(Data::Null, &mut ctx).unwrap(), Data::Int(3));
        }
        let (first, second) = (
            ctx.tools.call("vocabulary", &[]).unwrap(),
            ctx.tools.call("vocabulary", &[]).unwrap(),
        );
        assert_eq!(first.as_list().map(<[_]>::len), Some(2));
        match (&first, &second) {
            (lingua_script::Value::List(a), lingua_script::Value::List(b)) => {
                assert!(Arc::ptr_eq(a, b), "list tools must hand out one shared list")
            }
            other => panic!("expected two lists, got {other:?}"),
        }
    }

    #[test]
    fn scripts_reach_the_llm_through_the_bridge() {
        let mut ctx = ctx();
        let mut module = LlmgcModule::from_source(
            "asker",
            spec("summarize"),
            r#"fn process(text) { return call_llm("Summarize the following.\nText: " + text); }"#,
        )
        .unwrap();
        let out = module
            .invoke(Data::Str("The audit finished early. Everyone was pleased.".into()), &mut ctx)
            .unwrap();
        assert!(out.as_str().unwrap().contains("audit"));
    }

    #[test]
    fn runaway_scripts_hit_the_fuel_limit() {
        let mut ctx = ctx();
        let mut module = LlmgcModule::from_source(
            "loopy",
            spec("loop forever"),
            "fn process(x) { while true { } return x; }",
        )
        .unwrap()
        .with_fuel(5_000);
        let err = module.invoke(Data::Null, &mut ctx).unwrap_err();
        assert!(err.to_string().contains("fuel"), "{err}");
    }

    #[test]
    fn runaway_scripts_trap_as_out_of_fuel() {
        let mut ctx = ctx();
        let mut module = LlmgcModule::from_source(
            "loopy2",
            spec("loop forever"),
            "fn process(x) { while true { } return x; }",
        )
        .unwrap()
        .with_fuel(5_000);
        let err = module.invoke(Data::Null, &mut ctx).unwrap_err();
        assert_eq!(err, CoreError::Trap { module: "loopy2".into(), trap: TrapKind::OutOfFuel });
    }

    #[test]
    fn runaway_recursion_traps_without_overflowing() {
        let mut ctx = ctx();
        let mut module = LlmgcModule::from_source(
            "deep",
            spec("recurse forever"),
            "fn process(x) { return process(x); }",
        )
        .unwrap();
        let err = module.invoke(Data::Null, &mut ctx).unwrap_err();
        assert_eq!(err, CoreError::Trap { module: "deep".into(), trap: TrapKind::Recursion });
    }

    #[test]
    fn deadline_caps_fuel_and_traps_as_deadline_fuel() {
        use lingua_llm_sim::CancelToken;
        use std::time::Duration;
        let mut ctx = ctx();
        // ~1ms of deadline left buys ~FUEL_PER_MS ticks — far below the
        // default 2M budget, so the cap engages; the infinite loop then runs
        // the capped budget dry.
        ctx.cancel = CancelToken::after(Duration::from_millis(1));
        let mut module = LlmgcModule::from_source(
            "slow",
            spec("loop forever"),
            "fn process(x) { while true { } return x; }",
        )
        .unwrap();
        let err = module.invoke(Data::Null, &mut ctx).unwrap_err();
        assert_eq!(err, CoreError::Trap { module: "slow".into(), trap: TrapKind::DeadlineFuel });
    }

    #[test]
    fn generous_deadline_leaves_the_fuel_budget_alone() {
        use lingua_llm_sim::CancelToken;
        use std::time::Duration;
        let mut ctx = ctx();
        ctx.cancel = CancelToken::after(Duration::from_secs(3600));
        let mut module =
            LlmgcModule::from_source("fine", spec("identity"), "fn process(x) { return x; }")
                .unwrap();
        assert_eq!(module.invoke(Data::Int(9), &mut ctx).unwrap(), Data::Int(9));
    }

    #[test]
    fn replace_program_swaps_behaviour() {
        let mut ctx = ctx();
        let mut module =
            LlmgcModule::from_source("swappable", spec("id"), "fn process(x) { return 1; }")
                .unwrap();
        assert_eq!(module.invoke(Data::Null, &mut ctx).unwrap(), Data::Int(1));
        module
            .replace_program(GeneratedCode {
                source: "fn process(x) { return 2; }".into(),
                template: lingua_llm_sim::TemplateKind::Identity,
                bug: None,
            })
            .unwrap();
        assert_eq!(module.invoke(Data::Null, &mut ctx).unwrap(), Data::Int(2));
        // Broken replacement is rejected and the old program kept.
        let err = module.replace_program(GeneratedCode {
            source: "fn process(x) {".into(),
            template: lingua_llm_sim::TemplateKind::Identity,
            bug: None,
        });
        assert!(err.is_err());
        assert_eq!(module.invoke(Data::Null, &mut ctx).unwrap(), Data::Int(2));
    }

    #[test]
    fn bad_source_fails_to_construct() {
        assert!(LlmgcModule::from_source("bad", spec("x"), "fn process( {").is_err());
    }

    #[test]
    fn n_executions_compile_exactly_once_and_repair_recompiles_once() {
        // Sources unique to this test so the global cache's per-key stats
        // are deterministic even with other tests running concurrently.
        let v1 = "fn process(x) { let cache_probe_v1 = 0; return x + 1; }";
        let v2 = "fn process(x) { let cache_probe_v2 = 0; return x + 2; }";
        let mut ctx = ctx();
        let mut module = LlmgcModule::from_source("cached", spec("inc"), v1).unwrap();
        for i in 0..50 {
            assert_eq!(module.invoke(Data::Int(i), &mut ctx).unwrap(), Data::Int(i + 1));
        }
        // 50 executions, one compile; invocations never touch the compiler.
        assert_eq!(compile_cache().stats(v1), (1, 0));

        // Replicas share the compiled program without consulting the cache.
        let mut replica = module.fresh_instance().unwrap();
        assert_eq!(replica.invoke(Data::Int(1), &mut ctx).unwrap(), Data::Int(2));
        assert_eq!(compile_cache().stats(v1), (1, 0));

        // A second module over identical source is a cache hit, not a compile.
        let _twin = LlmgcModule::from_source("twin", spec("inc"), v1).unwrap();
        assert_eq!(compile_cache().stats(v1), (1, 1));

        // Repair swaps the source: exactly one compile for the new key.
        module
            .replace_program(GeneratedCode {
                source: v2.into(),
                template: lingua_llm_sim::TemplateKind::Identity,
                bug: None,
            })
            .unwrap();
        for i in 0..50 {
            assert_eq!(module.invoke(Data::Int(i), &mut ctx).unwrap(), Data::Int(i + 2));
        }
        assert_eq!(compile_cache().stats(v2), (1, 0));
        assert_eq!(compile_cache().stats(v1), (1, 1));
    }
}
