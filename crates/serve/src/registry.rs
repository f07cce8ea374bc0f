//! The compiled-pipeline registry: compile a DSL program once, instantiate
//! per worker.
//!
//! Compilation can be expensive — binding an LLMGC op *runs code generation
//! through the LLM*, which is billed. The registry pays that cost once at
//! registration and afterwards stamps out independent executable copies via
//! [`PhysicalPipeline::fresh_instance`]. A generation counter lets workers
//! cache their instances and notice re-registrations.

use crate::error::ServeError;
use lingua_core::{Compiler, ExecContext, PhysicalPipeline, Pipeline};
use lingua_ml::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Registered {
    generation: u64,
    /// The master copy. Never executed — only replicated. The mutex makes
    /// the `Box<dyn Module>`s inside shareable across worker threads.
    master: Mutex<PhysicalPipeline>,
}

/// A named collection of compiled pipelines.
#[derive(Default)]
pub struct PipelineRegistry {
    pipelines: Mutex<BTreeMap<String, Arc<Registered>>>,
    generations: AtomicU64,
}

impl PipelineRegistry {
    pub fn new() -> PipelineRegistry {
        PipelineRegistry::default()
    }

    /// Register (or replace) a compiled pipeline under `id`.
    ///
    /// Fails fast with [`ServeError::Core`] (`NotReplicable`) if the
    /// pipeline cannot be instantiated per worker — better to reject at
    /// registration than on the first job.
    pub fn register(
        &self,
        id: impl Into<String>,
        pipeline: PhysicalPipeline,
    ) -> Result<(), ServeError> {
        let probe = pipeline.fresh_instance()?;
        drop(probe);
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        self.pipelines
            .lock()
            .insert(id.into(), Arc::new(Registered { generation, master: Mutex::new(pipeline) }));
        Ok(())
    }

    /// Parse + compile DSL source and register it. Compilation uses the given
    /// context (and may bill LLM calls for code generation) exactly once.
    pub fn register_dsl(
        &self,
        id: impl Into<String>,
        source: &str,
        compiler: &Compiler,
        ctx: &mut ExecContext,
    ) -> Result<(), ServeError> {
        let logical = Pipeline::parse(source)?;
        let physical = compiler.compile(&logical, ctx)?;
        self.register(id, physical)
    }

    pub fn contains(&self, id: &str) -> bool {
        self.pipelines.lock().contains_key(id)
    }

    pub fn names(&self) -> Vec<String> {
        self.pipelines.lock().keys().cloned().collect()
    }

    /// The registration generation for `id` (bumps on re-register), used by
    /// workers to validate their cached instances.
    pub fn generation(&self, id: &str) -> Option<u64> {
        self.pipelines.lock().get(id).map(|r| r.generation)
    }

    /// Stamp out an independent executable instance.
    pub(crate) fn instantiate(&self, id: &str) -> Result<(u64, PhysicalPipeline), ServeError> {
        let registered = self
            .pipelines
            .lock()
            .get(id)
            .cloned()
            .ok_or_else(|| ServeError::UnknownPipeline(id.to_string()))?;
        let instance = registered.master.lock().fresh_instance()?;
        Ok((registered.generation, instance))
    }
}

impl std::fmt::Debug for PipelineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineRegistry").field("pipelines", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lingua_core::modules::{CustomModule, Module};
    use lingua_core::{CoreError, Data, LogicalOp};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(9);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 9)))
    }

    #[test]
    fn register_and_instantiate_from_dsl() {
        let registry = PipelineRegistry::new();
        let mut ctx = ctx();
        registry
            .register_dsl(
                "summ",
                r#"pipeline summ {
                    out = summarize(text) using llm with { desc: "summarize the following document" };
                }"#,
                &Compiler::with_builtins(),
                &mut ctx,
            )
            .unwrap();
        assert!(registry.contains("summ"));
        assert_eq!(registry.names(), vec!["summ".to_string()]);
        let (gen_a, a) = registry.instantiate("summ").unwrap();
        let (gen_b, b) = registry.instantiate("summ").unwrap();
        assert_eq!(gen_a, gen_b);
        assert_eq!(a.describe(), b.describe());
    }

    #[test]
    fn unknown_ids_error() {
        let registry = PipelineRegistry::new();
        assert!(matches!(
            registry.instantiate("ghost"),
            Err(ServeError::UnknownPipeline(id)) if id == "ghost"
        ));
        assert_eq!(registry.generation("ghost"), None);
    }

    #[test]
    fn reregistration_bumps_the_generation() {
        let registry = PipelineRegistry::new();
        let mut ctx = ctx();
        let compiler = Compiler::with_builtins();
        let source = r#"pipeline p {
            out = summarize(text) using llm with { desc: "summarize the following document" };
        }"#;
        registry.register_dsl("p", source, &compiler, &mut ctx).unwrap();
        let first = registry.generation("p").unwrap();
        registry.register_dsl("p", source, &compiler, &mut ctx).unwrap();
        let second = registry.generation("p").unwrap();
        assert!(second > first);
    }

    #[test]
    fn stateful_pipelines_are_rejected_at_registration() {
        let registry = PipelineRegistry::new();
        let mut ctx = ctx();
        let mut compiler = Compiler::with_builtins();
        compiler.register("counter", |_op, _ctx| {
            let mut n = 0i64;
            Ok(Box::new(CustomModule::new("counter", move |_, _| {
                n += 1;
                Ok(Data::Int(n))
            })) as Box<dyn Module>)
        });
        let pipeline = lingua_core::Pipeline::new("c").op(LogicalOp::new("counter").output("n"));
        let physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let err = registry.register("c", physical).unwrap_err();
        assert!(matches!(err, ServeError::Core(CoreError::NotReplicable { .. })));
        assert!(!registry.contains("c"));
    }
}
