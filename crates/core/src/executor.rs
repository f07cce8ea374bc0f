//! The executor: runs a compiled pipeline over a variable environment,
//! tracing per-op durations and LLM usage deltas.

use crate::compiler::PhysicalPipeline;
use crate::context::ExecContext;
use crate::data::Data;
use crate::error::CoreError;
use lingua_llm_sim::{CancelToken, Usage};
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace of one operator execution.
#[derive(Debug, Clone)]
pub struct OpTrace {
    pub op_type: String,
    pub output: String,
    pub wall: std::time::Duration,
    /// LLM usage consumed by this op.
    pub usage: Usage,
}

/// The result of a pipeline run.
#[derive(Debug)]
pub struct RunReport {
    /// Final variable environment (every op output).
    pub env: BTreeMap<String, Data>,
    pub traces: Vec<OpTrace>,
}

impl RunReport {
    /// Fetch a variable, erroring if absent.
    pub fn get(&self, var: &str) -> Result<&Data, CoreError> {
        self.env.get(var).ok_or_else(|| CoreError::UnknownVariable(var.to_string()))
    }

    /// Total LLM calls across the run.
    pub fn llm_calls(&self) -> u64 {
        self.traces.iter().map(|t| t.usage.calls).sum()
    }

    /// Compact text report.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for trace in &self.traces {
            out.push_str(&format!(
                "{:<24} {:>8.2?}  {} llm call(s)\n",
                trace.op_type, trace.wall, trace.usage.calls
            ));
        }
        out
    }
}

/// Pipeline executor.
pub struct Executor;

impl Executor {
    /// Run every op in order. Ops with one input receive that variable's
    /// value; multi-input ops receive a map keyed by variable name; source
    /// ops receive `Data::Null`.
    pub fn run(
        pipeline: &mut PhysicalPipeline,
        ctx: &mut ExecContext,
        initial_env: BTreeMap<String, Data>,
    ) -> Result<RunReport, CoreError> {
        let mut env = initial_env;
        let mut traces = Vec::with_capacity(pipeline.ops.len());
        let mut pipeline_span = ctx.tracer.span(lingua_trace::SpanKind::Pipeline, &pipeline.name);
        pipeline_span.attr("ops", pipeline.ops.len().to_string());
        for (op, module) in &mut pipeline.ops {
            // Cooperative cancellation between ops: a job past its deadline
            // stops here instead of starting the next operator. The check is
            // also the heartbeat the serve watchdog reads.
            if let Err(reason) = ctx.cancel.check() {
                pipeline_span.attr("cancelled", reason.label());
                return Err(CoreError::Cancelled { reason });
            }
            let input = match op.inputs.len() {
                0 => Data::Null,
                1 => env
                    .get(&op.inputs[0])
                    .cloned()
                    .ok_or_else(|| CoreError::UnknownVariable(op.inputs[0].clone()))?,
                _ => {
                    let mut map = BTreeMap::new();
                    for var in &op.inputs {
                        let value = env
                            .get(var)
                            .cloned()
                            .ok_or_else(|| CoreError::UnknownVariable(var.clone()))?;
                        map.insert(var.clone(), value);
                    }
                    Data::Map(map)
                }
            };
            let usage_before = ctx.llm.usage();
            let start = Instant::now();
            ctx.stats.record_invocation(module.name());
            let mut op_span = ctx.tracer.span(lingua_trace::SpanKind::Op, &op.op_type);
            op_span.attr("module", module.name());
            op_span.attr("module_kind", module.kind().name());
            if !op.output.is_empty() {
                op_span.attr("output", op.output.as_str());
            }
            let output = module.invoke(input, ctx)?;
            drop(op_span);
            traces.push(OpTrace {
                op_type: op.op_type.clone(),
                output: op.output.clone(),
                wall: start.elapsed(),
                usage: ctx.llm.usage().since(&usage_before),
            });
            if !op.output.is_empty() {
                env.insert(op.output.clone(), output);
            }
        }
        // Final check: a run whose deadline passed during its last op is past
        // its deadline like one that passed between ops, and must not be
        // reported as a completed run.
        if let Err(reason) = ctx.cancel.check() {
            pipeline_span.attr("cancelled", reason.label());
            return Err(CoreError::Cancelled { reason });
        }
        Ok(RunReport { env, traces })
    }
}

/// Cancellable parallel map over items, using scoped threads: up to
/// `threads` lanes, results in item order. Every lane checks `cancel` before
/// each item (which also heartbeats the token), so a fired deadline stops the
/// whole scan within one item per lane instead of finishing it. Returns
/// `CoreError::Cancelled` if the token fired; partial results are discarded.
/// A panic in `f` propagates to the caller with its original payload after
/// all lanes have stopped (serve's per-job `catch_unwind` isolation relies
/// on this).
pub fn try_parallel_map<T, U, F>(
    items: &[T],
    threads: usize,
    cancel: &CancelToken,
    f: F,
) -> Result<Vec<U>, CoreError>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() < 2 {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            if let Err(reason) = cancel.check() {
                return Err(CoreError::Cancelled { reason });
            }
            out.push(f(item));
        }
        return Ok(out);
    }
    let mut results: Vec<Option<U>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    let panicked = std::thread::scope(|scope| {
        let lanes: Vec<_> = results
            .chunks_mut(chunk)
            .zip(items.chunks(chunk))
            .map(|(slot_chunk, item_chunk)| {
                let f = &f;
                scope.spawn(move || {
                    for (slot, item) in slot_chunk.iter_mut().zip(item_chunk) {
                        if cancel.check().is_err() {
                            return;
                        }
                        *slot = Some(f(item));
                    }
                })
            })
            .collect();
        // Join every lane (an unjoined panic would surface as the scope's
        // own "a scoped thread panicked") and keep the first payload in
        // item order.
        lanes.into_iter().fold(None, |first, lane| {
            let payload = lane.join().err();
            first.or(payload)
        })
    });
    if let Some(payload) = panicked {
        // Re-raise what the module actually threw, so the caller's panic
        // isolation reports it.
        std::panic::resume_unwind(payload);
    }
    if let Some(reason) = cancel.status() {
        return Err(CoreError::Cancelled { reason });
    }
    Ok(results.into_iter().map(|r| r.expect("all slots filled when not cancelled")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::modules::CustomModule;
    use crate::pipeline::{LogicalOp, Pipeline};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(14);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 14)))
    }

    /// [`try_parallel_map`] under a token that never fires.
    fn parallel_map<T: Sync, U: Send, F: Fn(&T) -> U + Sync>(
        items: &[T],
        threads: usize,
        f: F,
    ) -> Vec<U> {
        try_parallel_map(items, threads, &CancelToken::unbounded(), f)
            .expect("an unbounded token never cancels")
    }

    fn compiler_with_test_ops() -> Compiler {
        let mut compiler = Compiler::with_builtins();
        compiler.register("emit", |op, _| {
            let value = op.params.get("value").cloned().unwrap_or_default();
            Ok(Box::new(CustomModule::new("emit", move |_, _| Ok(Data::Str(value.clone()))))
                as Box<dyn crate::modules::Module>)
        });
        compiler.register("concat", |_, _| {
            Ok(Box::new(CustomModule::new("concat", |input, _| {
                let map = input
                    .as_map()
                    .ok_or(CoreError::DataShape { expected: "map", got: "other".into() })?;
                let joined: Vec<String> = map.values().map(|v| v.render()).collect();
                Ok(Data::Str(joined.join("+")))
            })) as Box<dyn crate::modules::Module>)
        });
        compiler.register("exclaim", |_, _| {
            Ok(Box::new(CustomModule::new("exclaim", |input, _| {
                Ok(Data::Str(format!("{}!", input.render())))
            })) as Box<dyn crate::modules::Module>)
        });
        compiler
    }

    #[test]
    fn dataflow_executes_in_order() {
        let compiler = compiler_with_test_ops();
        let mut ctx = ctx();
        let pipeline = Pipeline::new("t")
            .op(LogicalOp::new("emit").output("a").param("value", "hello"))
            .op(LogicalOp::new("exclaim").output("b").input("a"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let report = Executor::run(&mut physical, &mut ctx, BTreeMap::new()).unwrap();
        assert_eq!(report.get("b").unwrap(), &Data::Str("hello!".into()));
        assert_eq!(report.traces.len(), 2);
        assert!(report.summary().contains("exclaim"));
    }

    #[test]
    fn multi_input_ops_receive_maps() {
        let compiler = compiler_with_test_ops();
        let mut ctx = ctx();
        let pipeline = Pipeline::new("t")
            .op(LogicalOp::new("emit").output("x").param("value", "1"))
            .op(LogicalOp::new("emit").output("y").param("value", "2"))
            .op(LogicalOp::new("concat").output("z").input("x").input("y"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let report = Executor::run(&mut physical, &mut ctx, BTreeMap::new()).unwrap();
        assert_eq!(report.get("z").unwrap(), &Data::Str("1+2".into()));
    }

    #[test]
    fn missing_variables_error() {
        let compiler = compiler_with_test_ops();
        let mut ctx = ctx();
        let pipeline = Pipeline::new("t").op(LogicalOp::new("exclaim").output("b").input("ghost"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let err = Executor::run(&mut physical, &mut ctx, BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::UnknownVariable(v) if v == "ghost"));
    }

    #[test]
    fn initial_env_feeds_first_op() {
        let compiler = compiler_with_test_ops();
        let mut ctx = ctx();
        let pipeline = Pipeline::new("t").op(LogicalOp::new("exclaim").output("b").input("seed"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let mut env = BTreeMap::new();
        env.insert("seed".to_string(), Data::Str("go".into()));
        let report = Executor::run(&mut physical, &mut ctx, env).unwrap();
        assert_eq!(report.get("b").unwrap(), &Data::Str("go!".into()));
    }

    #[test]
    fn parallel_map_matches_sequential() {
        let items: Vec<i64> = (0..1000).collect();
        let sequential: Vec<i64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let parallel = parallel_map(&items, threads, |x| x * x);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Empty and tiny inputs are fine.
        assert!(parallel_map::<i64, i64, _>(&[], 4, |x| *x).is_empty());
        assert_eq!(parallel_map(&[5], 4, |x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_map_empty_input() {
        let empty: Vec<String> = Vec::new();
        let out = parallel_map(&empty, 8, |s: &String| s.len());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_single_item() {
        assert_eq!(parallel_map(&["only"], 1, |s| s.to_uppercase()), vec!["ONLY"]);
        assert_eq!(parallel_map(&["only"], 64, |s| s.to_uppercase()), vec!["ONLY"]);
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        let items = [10, 20, 30];
        // Thread count clamps to the item count; results stay ordered.
        assert_eq!(parallel_map(&items, 100, |x| x / 10), vec![1, 2, 3]);
        assert_eq!(parallel_map(&items, 0, |x| x / 10), vec![1, 2, 3]);
    }

    #[test]
    fn parallel_map_preserves_order_under_uneven_work() {
        // Earlier items sleep longer, so later chunks finish first; the
        // output must still line up slot-for-slot with the input.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map(&items, 8, |&i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i) / 4));
            i * 10
        });
        let expected: Vec<u64> = items.iter().map(|i| i * 10).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn run_stops_between_ops_once_cancelled() {
        use lingua_llm_sim::CancelReason;
        let mut compiler = compiler_with_test_ops();
        compiler.register("cancel_self", |_, _| {
            Ok(Box::new(CustomModule::new("cancel_self", |input, ctx| {
                ctx.cancel.cancel();
                Ok(input)
            })) as Box<dyn crate::modules::Module>)
        });
        let mut ctx = ctx();
        let pipeline = Pipeline::new("t")
            .op(LogicalOp::new("emit").output("a").param("value", "x"))
            .op(LogicalOp::new("cancel_self").output("b").input("a"))
            .op(LogicalOp::new("exclaim").output("c").input("b"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let err = Executor::run(&mut physical, &mut ctx, BTreeMap::new()).unwrap_err();
        assert_eq!(err, CoreError::Cancelled { reason: CancelReason::Cancelled });
        assert_eq!(ctx.stats.invocations_of("exclaim"), 0, "the op after the cancel never ran");
    }

    #[test]
    fn run_with_expired_deadline_cancels_before_the_first_op() {
        use lingua_llm_sim::CancelReason;
        let compiler = compiler_with_test_ops();
        let mut ctx = ctx();
        let pipeline =
            Pipeline::new("t").op(LogicalOp::new("emit").output("a").param("value", "x"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        ctx.cancel =
            CancelToken::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let err = Executor::run(&mut physical, &mut ctx, BTreeMap::new()).unwrap_err();
        assert_eq!(err, CoreError::Cancelled { reason: CancelReason::DeadlineExceeded });
        assert_eq!(ctx.stats.invocations_of("emit"), 0);
    }

    #[test]
    fn try_parallel_map_stops_after_cancel() {
        use lingua_llm_sim::CancelReason;
        let items: Vec<u64> = (0..512).collect();
        for threads in [1, 4] {
            let token = CancelToken::unbounded();
            let err = try_parallel_map(&items, threads, &token, |&i| {
                if i % 64 == 50 {
                    token.cancel();
                }
                i
            })
            .unwrap_err();
            assert_eq!(
                err,
                CoreError::Cancelled { reason: CancelReason::Cancelled },
                "threads={threads}"
            );
        }
        // An already-expired deadline maps to DeadlineExceeded.
        let expired =
            CancelToken::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let err = try_parallel_map(&items, 4, &expired, |&i| i).unwrap_err();
        assert_eq!(err, CoreError::Cancelled { reason: CancelReason::DeadlineExceeded });
    }

    #[test]
    fn parallel_map_propagates_the_original_panic_payload() {
        let items: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&i| {
                if i == 37 {
                    panic!("module blew up on item {i}");
                }
                i
            })
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<String>().expect("the module's own payload");
        assert_eq!(message, "module blew up on item 37");
    }

    #[test]
    fn parallel_map_reraises_the_first_panic_in_item_order() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let items: Vec<u64> = (0..64).collect();
        // Lanes of 16: items 21 and 58 die on different threads, and 21
        // waits until 58 already has — first means item order, not time.
        let later_died = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&i| {
                if i == 58 {
                    later_died.store(true, Ordering::SeqCst);
                    panic!("module blew up on item {i}");
                }
                if i == 21 {
                    while !later_died.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    panic!("module blew up on item {i}");
                }
                i
            })
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<String>().expect("the module's own payload");
        assert_eq!(message, "module blew up on item 21");
    }

    #[test]
    fn pipelined_map_matches_sequential_at_any_depth() {
        // `PipelinedMapModule` is `try_parallel_map` at `depth` lanes.
        let items: Vec<i64> = (0..200).collect();
        let sequential: Vec<i64> = items.iter().map(|x| x * 3).collect();
        let token = CancelToken::unbounded();
        for depth in [0, 1, 4, 16, 64] {
            let out = try_parallel_map(&items, depth, &token, |x| x * 3).expect("live token");
            assert_eq!(out, sequential, "depth={depth}");
        }
    }

    #[test]
    fn pipelined_map_cancels_like_the_plain_variant() {
        use lingua_llm_sim::CancelReason;
        let items: Vec<u64> = (0..256).collect();
        let token = CancelToken::unbounded();
        let err = try_parallel_map(&items, 8, &token, |&i| {
            if i == 10 {
                token.cancel();
            }
            i
        })
        .unwrap_err();
        assert_eq!(err, CoreError::Cancelled { reason: CancelReason::Cancelled });
    }

    #[test]
    fn simllm_usage_counters_are_consistent_under_threads() {
        use lingua_llm_sim::{CompletionRequest, LlmService};

        let world = WorldSpec::generate(14);
        let svc = SimLlm::with_seed(&world, 14);
        // Distinct prompts from many threads: every call is billed once.
        let prompts: Vec<String> =
            (0..64).map(|i| format!("Summarize.\nText: document number {i}")).collect();
        let responses = parallel_map(&prompts, 8, |p| svc.complete(&CompletionRequest::new(p)));
        assert_eq!(responses.len(), prompts.len());
        let usage = svc.usage();
        assert_eq!(usage.calls, prompts.len() as u64);
        assert_eq!(usage.cached_calls, 0);
        assert!(usage.tokens_in > 0 && usage.tokens_out > 0);
    }

    #[test]
    fn simllm_cache_keeps_the_billing_invariant_under_threads() {
        use lingua_llm_sim::{CompletionRequest, LlmService, SimLlmConfig};

        let world = WorldSpec::generate(14);
        let svc = SimLlm::new(
            &world,
            SimLlmConfig { seed: 14, cache_enabled: true, ..Default::default() },
        );
        // Many threads race on the SAME prompt: every request is either a
        // billed call or a cache hit — none double-counted, none lost.
        let requests: Vec<u64> = (0..64).collect();
        let out = parallel_map(&requests, 8, |_| {
            svc.complete(&CompletionRequest::new("Summarize.\nText: the contended document"))
        });
        assert!(out.windows(2).all(|w| w[0] == w[1]), "all callers see one answer");
        let usage = svc.usage();
        assert_eq!(usage.calls + usage.cached_calls, requests.len() as u64);
        assert!(usage.calls >= 1);
    }
}
