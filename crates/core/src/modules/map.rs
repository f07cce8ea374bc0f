//! Pipelined fan-out over a list: [`crate::executor::try_parallel_map`] at
//! `depth` lanes.
//!
//! An LLM-bound stage spends its time *waiting*, not computing — so a worker
//! that dispatches one record at a time can never fill a continuous batcher's
//! size-triggered batches; it trickles one request per micro-batch window.
//! [`PipelinedMapModule`] lifts a per-record module over `Data::List` input
//! at a configurable in-flight `depth`: up to `depth` records from the same
//! invocation sit inside the service layer concurrently, which is exactly
//! the oversubscription a batcher needs to fill batches from a single
//! worker.

use crate::context::{ExecContext, ModuleRegistry};
use crate::data::Data;
use crate::error::CoreError;
use crate::executor::try_parallel_map;
use crate::modules::{Module, ModuleKind};
use crate::stats::ExecStats;
use std::sync::Arc;

/// Builds a fresh per-lane instance of the inner module. Shared (immutably)
/// by every instance of the map, so a compiled pipeline can be replicated
/// per serving worker without re-running code generation.
type InnerFactory = dyn Fn() -> Box<dyn Module> + Send + Sync;

/// Maps an inner module over the elements of a `Data::List` with up to
/// `depth` elements in flight at once. Non-list input degenerates to a
/// single inline invocation, so the module is a drop-in wrapper around its
/// inner stage.
///
/// Each lane runs a **fresh instance** of the inner module against a private
/// context (shared LLM service and tools, private registry and stats) that
/// holds a clone of the job's [`CancelToken`](lingua_llm_sim::CancelToken),
/// so every completion a lane places carries the job's deadline exactly as
/// one placed on the worker thread would.
pub struct PipelinedMapModule {
    name: String,
    depth: usize,
    inner: Arc<InnerFactory>,
}

impl PipelinedMapModule {
    /// Wrap `inner` (a factory producing fresh instances of the per-record
    /// stage) at the given in-flight depth. Depth is clamped to at least 1.
    pub fn new<F>(name: impl Into<String>, depth: usize, inner: F) -> PipelinedMapModule
    where
        F: Fn() -> Box<dyn Module> + Send + Sync + 'static,
    {
        PipelinedMapModule { name: name.into(), depth: depth.max(1), inner: Arc::new(inner) }
    }
}

/// A lane's private context: shared services, private per-run state. The
/// tracer field is assigned directly (not via `with_tracer`, which would
/// wrap the already-traced shared LLM a second time).
fn lane_context(ctx: &ExecContext) -> ExecContext {
    ExecContext {
        llm: Arc::clone(&ctx.llm),
        tools: ctx.tools.clone(),
        registry: ModuleRegistry::new(),
        stats: ExecStats::default(),
        tracer: ctx.tracer.clone(),
        cancel: ctx.cancel.clone(),
    }
}

impl Module for PipelinedMapModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ModuleKind {
        ModuleKind::Custom
    }

    fn describe(&self) -> String {
        format!("pipelined map `{}` (depth {})", self.name, self.depth)
    }

    fn invoke(&mut self, input: Data, ctx: &mut ExecContext) -> Result<Data, CoreError> {
        let Data::List(items) = input else {
            let mut lane_ctx = lane_context(ctx);
            let out = (self.inner)().invoke(input, &mut lane_ctx);
            ctx.stats.record_invocation(&self.name);
            return out;
        };
        let count = items.len();
        // Snapshot the shared pieces: the lanes run on pooled threads, so
        // they own everything they touch.
        let template = lane_context(ctx);
        let inner = Arc::clone(&self.inner);
        // The lanes block on the service rather than burn CPU, so `depth` of
        // them from this one worker is what lets a continuous batcher fill
        // size-triggered batches instead of trickling one request a window.
        let results = try_parallel_map(items, self.depth, &ctx.cancel, move |item| {
            let mut lane_ctx = lane_context(&template);
            inner().invoke(item, &mut lane_ctx)
        })?;
        ctx.stats.record_invocations(&self.name, count as u64);
        Ok(Data::List(results.into_iter().collect::<Result<Vec<Data>, CoreError>>()?))
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(PipelinedMapModule {
            name: self.name.clone(),
            depth: self.depth,
            inner: Arc::clone(&self.inner),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::CustomModule;
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::{CancelToken, SimLlm};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(21);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 21)))
    }

    fn upper_factory() -> Box<dyn Module> {
        Box::new(CustomModule::stateless("upper", |input, _| {
            Ok(Data::Str(input.render().to_uppercase()))
        }))
    }

    #[test]
    fn maps_a_list_and_preserves_order() {
        let mut module = PipelinedMapModule::new("map_upper", 4, upper_factory);
        let mut ctx = ctx();
        let input = Data::List((0..10).map(|i| Data::Str(format!("item {i}"))).collect());
        let out = module.invoke(input, &mut ctx).unwrap();
        let items = out.as_list().unwrap();
        assert_eq!(items.len(), 10);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item, &Data::Str(format!("ITEM {i}")));
        }
        assert_eq!(ctx.stats.invocations_of("map_upper"), 10);
    }

    #[test]
    fn non_list_input_runs_inline() {
        let mut module = PipelinedMapModule::new("map_upper", 4, upper_factory);
        let mut ctx = ctx();
        let out = module.invoke(Data::Str("lone".into()), &mut ctx).unwrap();
        assert_eq!(out, Data::Str("LONE".into()));
        assert_eq!(ctx.stats.invocations_of("map_upper"), 1);
    }

    #[test]
    fn depth_elements_are_genuinely_in_flight_together() {
        const DEPTH: usize = 4;
        // Every invocation blocks on a shared barrier sized to the depth:
        // the map only completes if DEPTH calls truly overlap.
        let barrier = Arc::new(Barrier::new(DEPTH));
        let mut module = PipelinedMapModule::new("rendezvous", DEPTH, move || {
            let barrier = Arc::clone(&barrier);
            Box::new(CustomModule::stateless("rendezvous", move |input, _| {
                barrier.wait();
                Ok(input)
            }))
        });
        let mut ctx = ctx();
        let input = Data::List((0..DEPTH).map(|i| Data::Int(i as i64)).collect());
        let out = module.invoke(input, &mut ctx).unwrap();
        assert_eq!(out.as_list().unwrap().len(), DEPTH);
    }

    #[test]
    fn inner_error_fails_the_whole_map() {
        let mut module = PipelinedMapModule::new("fail_odd", 2, || {
            Box::new(CustomModule::stateless("fail_odd", |input, _| match input {
                Data::Int(i) if i % 2 == 1 => {
                    Err(CoreError::DataShape { expected: "even", got: format!("{i}") })
                }
                other => Ok(other),
            }))
        });
        let mut ctx = ctx();
        let input = Data::List((0..4).map(Data::Int).collect());
        assert!(module.invoke(input, &mut ctx).is_err());
    }

    #[test]
    fn cancelled_job_stops_the_map() {
        let mut module = PipelinedMapModule::new("map_upper", 2, upper_factory);
        let mut ctx = ctx();
        let token = CancelToken::unbounded();
        token.cancel();
        ctx.cancel = token;
        let input = Data::List((0..4).map(|i| Data::Str(format!("item {i}"))).collect());
        assert!(matches!(module.invoke(input, &mut ctx), Err(CoreError::Cancelled { .. })));
    }

    #[test]
    fn lanes_place_completions_under_the_jobs_token() {
        use lingua_llm_sim::{CancelReason, NoAnswer};
        use lingua_ml::sync::Mutex;
        // Every lane kills the job, then asks the LLM: the lane's context
        // holds the job's own token, so the completion it places is refused.
        let answers = Arc::new(Mutex::new(Vec::new()));
        let mut module = PipelinedMapModule::new("doomed", 4, {
            let answers = Arc::clone(&answers);
            move || {
                let answers = Arc::clone(&answers);
                Box::new(CustomModule::stateless("doomed", move |input, ctx| {
                    ctx.cancel.cancel();
                    answers.lock().push(ctx.complete("Summarize.\nText: too late"));
                    Ok(input)
                }))
            }
        });
        let mut ctx = ctx();
        let input = Data::List((0..4).map(Data::Int).collect());
        assert!(matches!(module.invoke(input, &mut ctx), Err(CoreError::Cancelled { .. })));
        assert!(ctx.cancel.is_cancelled(), "the lanes held the job's token, not a copy");
        let answers = answers.lock();
        assert!(!answers.is_empty());
        let refused = Err(NoAnswer::Cancelled(CancelReason::Cancelled));
        assert!(answers.iter().all(|answer| *answer == refused));
        assert_eq!(ctx.llm.usage().calls, 0, "a dead job's calls are never placed");
    }

    #[test]
    fn fresh_instances_share_the_factory_but_not_state() {
        let counter = Arc::new(AtomicUsize::new(0));
        let module = PipelinedMapModule::new("counted", 2, {
            let counter = Arc::clone(&counter);
            move || {
                counter.fetch_add(1, Ordering::Relaxed);
                Box::new(CustomModule::stateless("counted", |input, _| Ok(input)))
            }
        });
        let mut replica = module.fresh_instance().expect("replicable");
        let mut ctx = ctx();
        let out = replica.invoke(Data::List(vec![Data::Int(1), Data::Int(2)]), &mut ctx).unwrap();
        assert_eq!(out.as_list().unwrap().len(), 2);
        assert_eq!(counter.load(Ordering::Relaxed), 2, "one fresh inner per element");
        assert_eq!(replica.describe(), "pipelined map `counted` (depth 2)");
    }
}
