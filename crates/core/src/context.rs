//! Execution context: the services and shared state every module invocation
//! receives, plus the host bridge that lets MangaScript programs reach back
//! into the system.

use crate::data::Data;
use crate::error::CoreError;
use crate::modules::Module;
use crate::stats::ExecStats;
use crate::tools::ToolRegistry;
use lingua_llm_sim::{CancelToken, CompletionRequest, LlmService, NoAnswer};
use lingua_ml::sync::Mutex;
use lingua_script::{Host, Value as ScriptValue};
use lingua_trace::{SpanKind, TracedLlm, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A shared, named collection of live module instances, so modules (and LLMGC
/// scripts via `call_module`) can invoke each other — §3.1: "LINGUA MANGA
/// allows LLMGC to call other modules in the system".
type SharedModule = Arc<Mutex<Box<dyn Module>>>;

#[derive(Clone, Default)]
pub struct ModuleRegistry {
    inner: Arc<Mutex<BTreeMap<String, SharedModule>>>,
}

impl ModuleRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&self, name: impl Into<String>, module: Box<dyn Module>) {
        self.inner.lock().insert(name.into(), Arc::new(Mutex::new(module)));
    }

    pub fn get(&self, name: &str) -> Option<SharedModule> {
        self.inner.lock().get(name).cloned()
    }

    pub fn names(&self) -> Vec<String> {
        self.inner.lock().keys().cloned().collect()
    }
}

impl std::fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleRegistry").field("modules", &self.names()).finish()
    }
}

/// Everything a module invocation can reach.
pub struct ExecContext {
    /// The LLM service (shared; interior-mutable usage counters).
    pub llm: Arc<dyn LlmService>,
    /// Registered external tools.
    pub tools: ToolRegistry,
    /// Live modules addressable by `call_module`.
    pub registry: ModuleRegistry,
    /// Execution counters.
    pub stats: ExecStats,
    /// Trace emitter (disabled by default — every emit is one branch).
    pub tracer: Tracer,
    /// Cooperative cancellation: the job's deadline / cancel flag, checked by
    /// the executor between ops and by `invoke_module`, and attached to every
    /// completion [`ExecContext::complete`] places. Unbounded by default, in
    /// which case every check is a no-op. Doubles as the worker heartbeat
    /// (each check bumps a logical progress counter the watchdog reads).
    pub cancel: CancelToken,
}

/// Builds fresh per-run [`ExecContext`]s over shared services.
///
/// The split matters for concurrent serving: the LLM service (with its
/// interior-mutable usage meters) and the tool registry are shared across
/// every worker, while each built context owns its *own* module registry and
/// execution counters — per-run mutable state never crosses threads.
#[derive(Clone)]
pub struct ContextFactory {
    llm: Arc<dyn LlmService>,
    tools: ToolRegistry,
    tracer: Tracer,
}

impl ContextFactory {
    pub fn new(llm: Arc<dyn LlmService>) -> ContextFactory {
        ContextFactory { llm, tools: ToolRegistry::new(), tracer: Tracer::disabled() }
    }

    /// Share a tool registry with every built context.
    pub fn with_tools(mut self, tools: ToolRegistry) -> ContextFactory {
        self.tools = tools;
        self
    }

    /// Replace the shared LLM service, keeping the tool registry — the hook
    /// for interposing a wrapper (a resilience gateway, a metering shim)
    /// between every built context and the original service.
    pub fn with_llm(mut self, llm: Arc<dyn LlmService>) -> ContextFactory {
        self.llm = llm;
        self
    }

    /// Share a tracer with every built context: pipeline, module, optimizer,
    /// and LLM-call spans all flow to its sink.
    pub fn with_tracer(mut self, tracer: Tracer) -> ContextFactory {
        self.tracer = tracer;
        self
    }

    /// The shared tracer (disabled unless [`ContextFactory::with_tracer`]
    /// installed one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared LLM service.
    pub fn llm(&self) -> Arc<dyn LlmService> {
        Arc::clone(&self.llm)
    }

    /// Build a fresh context: shared LLM + tools, private registry + stats.
    pub fn build(&self) -> ExecContext {
        self.build_with_llm(Arc::clone(&self.llm))
    }

    /// Build a fresh context over a *substitute* LLM service — typically a
    /// metering or routing wrapper around [`ContextFactory::llm`] — while
    /// keeping the shared tool registry.
    pub fn build_with_llm(&self, llm: Arc<dyn LlmService>) -> ExecContext {
        ExecContext::new(llm).with_tools(self.tools.clone()).with_tracer(self.tracer.clone())
    }
}

impl std::fmt::Debug for ContextFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextFactory").field("tools", &self.tools).finish()
    }
}

impl ExecContext {
    pub fn new(llm: Arc<dyn LlmService>) -> ExecContext {
        let stats = ExecStats { usage_at_start: llm.usage(), ..Default::default() };
        ExecContext {
            llm,
            tools: ToolRegistry::new(),
            registry: ModuleRegistry::new(),
            stats,
            tracer: Tracer::disabled(),
            cancel: CancelToken::unbounded(),
        }
    }

    pub fn with_tools(mut self, tools: ToolRegistry) -> ExecContext {
        self.tools = tools;
        self
    }

    /// Install the job's cancel token (deadline + explicit cancel). Serve
    /// workers call this with the token minted at admission.
    pub fn with_cancel(mut self, cancel: CancelToken) -> ExecContext {
        self.cancel = cancel;
        self
    }

    /// Install a tracer. When enabled, the LLM service is wrapped with
    /// [`TracedLlm`] so every call this context makes emits an `llm_call`
    /// span with exact token attribution; a disabled tracer leaves the
    /// service untouched.
    pub fn with_tracer(mut self, tracer: Tracer) -> ExecContext {
        self.llm = TracedLlm::wrap(&tracer, Arc::clone(&self.llm));
        self.tracer = tracer;
        self
    }

    /// Place a completion on behalf of this context's job — the one way
    /// modules call the LLM. The request carries [`ExecContext::cancel`], so
    /// the batcher, gateway and simulator stop placing, retrying and billing
    /// the call once the job is dead, on whichever thread they run it. What
    /// comes back is an answer or a typed [`NoAnswer`]; `?` turns the latter
    /// into a [`CoreError`] (`Cancelled` for a dead job).
    pub fn complete(&self, prompt: impl Into<String>) -> Result<Arc<str>, NoAnswer> {
        let request = CompletionRequest::new(prompt).with_cancel(self.cancel.clone());
        self.llm.complete_batch(std::slice::from_ref(&request)).into_single().0
    }

    /// Invoke a registered module by name.
    ///
    /// Note: a module invoking *itself* through the registry would deadlock
    /// on its own mutex; recursion must go through script functions instead.
    pub fn invoke_module(&mut self, name: &str, input: Data) -> Result<Data, CoreError> {
        // Cooperative cancellation: stop before starting new work once the
        // job's deadline passed (also the heartbeat for the watchdog).
        if let Err(reason) = self.cancel.check() {
            return Err(CoreError::Cancelled { reason });
        }
        let module = self
            .registry
            .get(name)
            .ok_or_else(|| CoreError::Compile(format!("no module named `{name}`")))?;
        self.stats.record_invocation(name);
        let mut guard = module.lock();
        let mut span = self.tracer.span(SpanKind::Module, name);
        span.attr("module_kind", guard.kind().name());
        let result = guard.invoke(input, self);
        if result.is_err() {
            span.attr("error", "true");
        }
        result
    }
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("tools", &self.tools)
            .field("registry", &self.registry)
            .finish()
    }
}

/// Bridges MangaScript host calls back into the context.
pub struct HostBridge<'a> {
    pub ctx: &'a mut ExecContext,
}

impl Host for HostBridge<'_> {
    /// A non-answer fails the script's call (`LlmgcModule` maps it back to
    /// `Cancelled` when the job is dead) instead of handing it a notice to
    /// read as text.
    fn call_llm(&mut self, prompt: &str) -> Result<String, String> {
        self.ctx.complete(prompt).map(|text| text.to_string()).map_err(|no| no.to_string())
    }

    fn call_module(&mut self, name: &str, input: ScriptValue) -> Result<ScriptValue, String> {
        let data = Data::from_script(&input);
        self.ctx.invoke_module(name, data).map(|out| out.to_script()).map_err(|e| e.to_string())
    }

    fn call_tool(&mut self, name: &str, args: &[ScriptValue]) -> Result<ScriptValue, String> {
        self.ctx.tools.call(name, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::CustomModule;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(2);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 2)))
    }

    #[test]
    fn registry_insert_and_invoke() {
        let mut ctx = ctx();
        ctx.registry.insert(
            "upper",
            Box::new(CustomModule::new("upper", |input, _| {
                Ok(Data::Str(input.render().to_uppercase()))
            })),
        );
        let out = ctx.invoke_module("upper", Data::Str("abc".into())).unwrap();
        assert_eq!(out, Data::Str("ABC".into()));
        assert_eq!(ctx.stats.invocations_of("upper"), 1);
        assert!(ctx.invoke_module("missing", Data::Null).is_err());
    }

    #[test]
    fn host_bridge_reaches_llm_tools_and_modules() {
        let mut ctx = ctx();
        ctx.tools.register_list("vocab", vec!["Sony".into()]);
        ctx.registry.insert("echo", Box::new(CustomModule::new("echo", |input, _| Ok(input))));
        let mut bridge = HostBridge { ctx: &mut ctx };
        let response = bridge.call_llm("Summarize.\nText: a b c").unwrap();
        assert!(!response.is_empty());
        let vocab = bridge.call_tool("vocab", &[]).unwrap();
        assert_eq!(vocab.as_list().unwrap().len(), 1);
        let echoed = bridge.call_module("echo", ScriptValue::Int(7)).unwrap();
        assert_eq!(echoed, ScriptValue::Int(7));
        assert!(bridge.call_module("missing", ScriptValue::Null).is_err());
        assert!(bridge.call_tool("missing", &[]).is_err());
    }

    #[test]
    fn completions_carry_the_jobs_token() {
        use lingua_llm_sim::CancelReason;
        let mut ctx = ctx();
        assert!(ctx.complete("Summarize.\nText: a b c").is_ok());
        let billed = ctx.llm.usage();
        ctx.cancel.cancel();
        let refused = NoAnswer::Cancelled(CancelReason::Cancelled);
        assert_eq!(ctx.complete("Summarize.\nText: d e f"), Err(refused));
        // A script's `llm(...)` call fails the same way, instead of reading
        // a notice as its answer.
        let mut bridge = HostBridge { ctx: &mut ctx };
        assert_eq!(bridge.call_llm("Summarize.\nText: g h i"), Err(refused.to_string()));
        assert_eq!(ctx.llm.usage(), billed, "a dead job's calls are never placed or billed");
    }

    #[test]
    fn context_factory_shares_services_but_not_run_state() {
        let world = WorldSpec::generate(2);
        let factory = ContextFactory::new(Arc::new(SimLlm::with_seed(&world, 2)));
        let mut a = factory.build();
        let mut b = factory.build();
        // Shared LLM: usage metered in one context is visible in the other.
        a.complete("Summarize.\nText: x y z").expect("answered");
        assert_eq!(b.llm.usage().calls, 1);
        // Private per-run state: stats and module registries do not leak.
        a.stats.record_invocation("only_in_a");
        assert_eq!(b.stats.invocations_of("only_in_a"), 0);
        a.registry.insert("m", Box::new(CustomModule::new("m", |input, _| Ok(input))));
        assert!(b.registry.get("m").is_none());
        assert!(b.invoke_module("m", Data::Null).is_err());
        // Shared tools flow into every build.
        let mut tools = ToolRegistry::new();
        tools.register_list("vocab", vec!["Sony".into()]);
        let factory = factory.with_tools(tools);
        assert!(factory.build().tools.contains("vocab"));
    }

    #[test]
    fn with_llm_swaps_the_service_and_keeps_tools() {
        let world = WorldSpec::generate(2);
        let original: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 2));
        let replacement: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 3));
        let mut tools = ToolRegistry::new();
        tools.register_list("vocab", vec!["Sony".into()]);
        let factory =
            ContextFactory::new(original.clone()).with_tools(tools).with_llm(replacement.clone());
        let ctx = factory.build();
        ctx.complete("Summarize.\nText: x").expect("answered");
        assert_eq!(replacement.usage().calls, 1, "calls land on the swapped-in service");
        assert_eq!(original.usage().calls, 0, "the original service is untouched");
        assert!(ctx.tools.contains("vocab"), "tools survive the swap");
    }

    #[test]
    fn modules_can_call_other_modules() {
        let mut ctx = ctx();
        ctx.registry.insert(
            "inner",
            Box::new(CustomModule::new("inner", |input, _| {
                Ok(Data::Str(format!("[{}]", input.render())))
            })),
        );
        ctx.registry.insert(
            "outer",
            Box::new(CustomModule::new("outer", |input, ctx| ctx.invoke_module("inner", input))),
        );
        let out = ctx.invoke_module("outer", Data::Str("x".into())).unwrap();
        assert_eq!(out, Data::Str("[x]".into()));
        assert_eq!(ctx.stats.invocations_of("inner"), 1);
        assert_eq!(ctx.stats.invocations_of("outer"), 1);
    }
}
