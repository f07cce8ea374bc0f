//! Pipelined fan-out over a list at up to `depth` lanes; two or more run each
//! on a thread of its own for the length of the map.
//!
//! An LLM-bound stage spends its time *waiting*, not computing — so a worker
//! that dispatches one record at a time can never fill a continuous batcher's
//! size-triggered batches; it trickles one request per micro-batch window.
//! [`PipelinedMapModule`] lifts a per-record module over `Data::List` input
//! at a configurable in-flight `depth`: up to `depth` records from the same
//! invocation sit inside the service layer concurrently, which is exactly
//! the oversubscription a batcher needs to fill batches from a single
//! worker.
//!
//! When the per-record module has a list form ([`Module::invoke_list`]: a
//! pair-judging LLM module), the map hands it the list instead, cut into
//! prompts of at most [`LIST_PROMPT_MEMBERS`] that go out over the same
//! lanes: a job of eight pairs is one numbered prompt, placed on the
//! worker's own thread.

use crate::context::{ExecContext, ModuleRegistry};
use crate::data::Data;
use crate::error::CoreError;
use crate::executor::try_lane_map;
use crate::modules::{Module, ModuleKind};
use crate::stats::ExecStats;
use lingua_ml::sync::Mutex;
use lingua_trace::SpanKind;
use std::sync::{Arc, OnceLock};

/// The most elements one call of a list form is handed; a longer list is cut
/// into calls of this many, placed over the map's lanes. A stream window's
/// judge cuts its pairs the same way.
pub const LIST_PROMPT_MEMBERS: usize = 8;

/// Builds a lane's instance of the inner module. Shared (immutably)
/// by every instance of the map, so a compiled pipeline can be replicated
/// per serving worker without re-running code generation.
type InnerFactory = dyn Fn() -> Box<dyn Module> + Send + Sync;

/// Maps an inner module over the elements of a `Data::List` with up to
/// `depth` elements in flight at once. Non-list input degenerates to a
/// single inline invocation, so the module is a drop-in wrapper around its
/// inner stage.
///
/// Each lane builds **one instance** of the inner module, and one private
/// context (shared LLM service and tools, private registry and stats), before
/// its first element, and runs every element of its share through them — the
/// per-worker contract of [`Module::fresh_instance`], with a lane for a
/// worker. The context holds a clone of the job's
/// [`CancelToken`](lingua_llm_sim::CancelToken), so every completion a lane
/// places carries the job's deadline exactly as one placed on the worker
/// thread would.
///
/// Whether the inner module has a list form is decided once, by the first
/// list the map or any of its replicas is handed; the instance that answers
/// the question then does that list's first share of the work.
pub struct PipelinedMapModule {
    name: String,
    depth: usize,
    inner: Arc<InnerFactory>,
    list_form: Arc<OnceLock<bool>>,
}

impl PipelinedMapModule {
    /// Wrap `inner` (a factory producing fresh instances of the per-record
    /// stage) at the given in-flight depth. Depth is clamped to at least 1.
    pub fn new<F>(name: impl Into<String>, depth: usize, inner: F) -> PipelinedMapModule
    where
        F: Fn() -> Box<dyn Module> + Send + Sync + 'static,
    {
        PipelinedMapModule {
            name: name.into(),
            depth: depth.max(1),
            inner: Arc::new(inner),
            list_form: Arc::new(OnceLock::new()),
        }
    }
}

/// What a lane runs its elements through: its instance of the inner module
/// and its private context.
type Lane = (Box<dyn Module>, ExecContext);

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
        let mut spare = None;
        let list_form = *self.list_form.get_or_init(|| {
            let mut probe = (self.inner)();
            let has = probe.invoke_list(&[], &mut lane_context(ctx)).is_some();
            spare = Some(probe);
            has
        });
        let spare = Mutex::new(spare);
        let (inner, shared) = (&self.inner, &*ctx);
        let lane = || (spare.lock().take().unwrap_or_else(|| inner()), lane_context(shared));
        // The lanes block on the service rather than burn CPU, so `depth` of
        // them from this one worker is what lets a continuous batcher fill
        // size-triggered batches instead of trickling one request a window.
        let outputs = if list_form {
            let mut rest = items.into_iter();
            let chunks: Vec<Vec<Data>> = (0..count.div_ceil(LIST_PROMPT_MEMBERS))
                .map(|_| rest.by_ref().take(LIST_PROMPT_MEMBERS).collect())
                .collect();
            for chunk in &chunks {
                ctx.tracer.instant(SpanKind::Module, "list_prompt", || {
                    vec![("members".to_string(), chunk.len().to_string())]
                });
            }
            let judged = try_lane_map(
                chunks,
                self.depth,
                &ctx.cancel,
                lane,
                |(module, lane_ctx): &mut Lane, chunk| {
                    module.invoke_list(&chunk, lane_ctx).unwrap_or_else(|| {
                        chunk.into_iter().map(|item| module.invoke(item, lane_ctx)).collect()
                    })
                },
            )?;
            judged.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().flatten().collect()
        } else {
            let results = try_lane_map(
                items,
                self.depth,
                &ctx.cancel,
                lane,
                |(module, lane_ctx): &mut Lane, item| module.invoke(item, lane_ctx),
            )?;
            results.into_iter().collect::<Result<Vec<Data>, CoreError>>()?
        };
        ctx.stats.record_invocations(&self.name, count as u64);
        Ok(Data::List(outputs))
    }

    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        Some(Box::new(PipelinedMapModule {
            name: self.name.clone(),
            depth: self.depth,
            inner: Arc::clone(&self.inner),
            list_form: Arc::clone(&self.list_form),
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

    /// A module with a list form: upper-cases its input, logging the size of
    /// every list it is handed.
    struct Listed {
        lists: Arc<lingua_ml::sync::Mutex<Vec<usize>>>,
    }

    impl Module for Listed {
        fn name(&self) -> &str {
            "listed"
        }

        fn kind(&self) -> ModuleKind {
            ModuleKind::Llm
        }

        fn invoke(&mut self, input: Data, _ctx: &mut ExecContext) -> Result<Data, CoreError> {
            Ok(Data::Str(input.render().to_uppercase()))
        }

        fn invoke_list(
            &mut self,
            inputs: &[Data],
            ctx: &mut ExecContext,
        ) -> Option<Result<Vec<Data>, CoreError>> {
            self.lists.lock().push(inputs.len());
            Some(inputs.iter().map(|input| self.invoke(input.clone(), ctx)).collect())
        }
    }

    #[test]
    fn a_list_form_gets_the_list_in_prompts_of_at_most_the_cap() {
        use lingua_trace::{Phase, RingSink, Tracer};
        let lists = Arc::new(lingua_ml::sync::Mutex::new(Vec::new()));
        let built = Arc::new(AtomicUsize::new(0));
        let module = PipelinedMapModule::new("map_listed", 4, {
            let (lists, built) = (Arc::clone(&lists), Arc::clone(&built));
            move || {
                built.fetch_add(1, Ordering::Relaxed);
                Box::new(Listed { lists: Arc::clone(&lists) }) as Box<dyn Module>
            }
        });
        let mut replica = module.fresh_instance().expect("replicable");
        let sink = Arc::new(RingSink::new(256));
        let mut ctx = ctx();
        ctx.tracer = Tracer::new(sink.clone());
        let input = Data::List((0..20).map(|i| Data::Str(format!("item {i}"))).collect());
        let out = replica.invoke(input, &mut ctx).unwrap();
        let expected: Vec<Data> = (0..20).map(|i| Data::Str(format!("ITEM {i}"))).collect();
        assert_eq!(out, Data::List(expected));
        // The probe (an empty list) decided the path and judged a share.
        let mut sizes = lists.lock().clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![0, 4, 8, 8]);
        assert_eq!(built.load(Ordering::Relaxed), 3, "one instance per lane, a prompt each");
        assert_eq!(ctx.stats.invocations_of("map_listed"), 20);
        let instants: Vec<Vec<(String, String)>> = sink
            .events()
            .into_iter()
            .filter(|e| e.phase == Phase::Instant && e.name == "list_prompt")
            .map(|e| e.attrs)
            .collect();
        let members = |n: &str| vec![("members".to_string(), n.to_string())];
        assert_eq!(instants, vec![members("8"), members("8"), members("4")]);
        // Decided once for every replica: the next job builds no probe.
        let mut other = module.fresh_instance().expect("replicable");
        let input = Data::List((0..8).map(Data::Int).collect());
        assert_eq!(other.invoke(input, &mut ctx).unwrap().as_list().unwrap().len(), 8);
        assert_eq!(built.load(Ordering::Relaxed), 4, "one prompt, one lane, one instance");
        assert_eq!(lists.lock().len(), 5);
        assert_eq!(ctx.stats.invocations_of("map_listed"), 28);
    }

    #[test]
    fn each_lane_builds_one_instance_on_either_path() {
        // 32 elements are 32 items per element, or four prompts of eight:
        // `depth` lanes either way, and one factory call per lane — the
        // first job's probe included, as it does a lane's share.
        for depth in [1, 4] {
            for listed in [false, true] {
                let built = Arc::new(AtomicUsize::new(0));
                let module = PipelinedMapModule::new("counted", depth, {
                    let built = Arc::clone(&built);
                    move || {
                        built.fetch_add(1, Ordering::Relaxed);
                        if listed {
                            Box::new(Listed { lists: Arc::default() }) as Box<dyn Module>
                        } else {
                            Box::new(CustomModule::stateless("counted", |input, _| Ok(input)))
                        }
                    }
                });
                let mut ctx = ctx();
                for job in 0..3 {
                    let mut replica = module.fresh_instance().expect("replicable");
                    let before = built.load(Ordering::Relaxed);
                    let input = Data::List((0..32).map(Data::Int).collect());
                    let out = replica.invoke(input, &mut ctx).unwrap();
                    assert_eq!(out.as_list().map(<[Data]>::len), Some(32));
                    assert_eq!(
                        built.load(Ordering::Relaxed) - before,
                        depth,
                        "depth {depth}, list form {listed}, job {job}"
                    );
                }
            }
        }
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
        assert_eq!(counter.load(Ordering::Relaxed), 2, "one fresh inner per lane");
        assert_eq!(replica.describe(), "pipelined map `counted` (depth 2)");
        // The path was decided by the first list: no probe for the next one.
        let out = replica.invoke(Data::List(vec![Data::Int(3)]), &mut ctx).unwrap();
        assert_eq!(out.as_list().unwrap().len(), 1);
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }
}
