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
    /// Final variable environment: every op output, and none of the job's
    /// inputs (each moved into the op that read it last).
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
    ///
    /// Each of the job's `inputs` moves into the op that reads it last, and
    /// is cloned only for the reads before that one; an op output of the
    /// same name shadows it. The report's env holds op outputs only.
    pub fn run(
        pipeline: &mut PhysicalPipeline,
        ctx: &mut ExecContext,
        mut inputs: BTreeMap<String, Data>,
    ) -> Result<RunReport, CoreError> {
        // The (op, input slot) of each job input's last read.
        let mut last_reads = BTreeMap::new();
        for (index, (op, _)) in pipeline.ops.iter().enumerate() {
            for (slot, var) in op.inputs.iter().enumerate() {
                if inputs.contains_key(var) {
                    last_reads.insert(var.as_str(), (index, slot));
                }
            }
        }
        let last_reads: Vec<(usize, usize)> = last_reads.into_values().collect();
        let mut env = BTreeMap::new();
        let mut read = |env: &BTreeMap<String, Data>, at: (usize, usize), var: &String| {
            let value = match env.get(var) {
                Some(output) => Some(output.clone()),
                None if last_reads.contains(&at) => inputs.remove(var),
                None => inputs.get(var).cloned(),
            };
            value.ok_or_else(|| CoreError::UnknownVariable(var.clone()))
        };
        let mut traces = Vec::with_capacity(pipeline.ops.len());
        let mut pipeline_span = ctx.tracer.span(lingua_trace::SpanKind::Pipeline, &pipeline.name);
        pipeline_span.attr("ops", pipeline.ops.len().to_string());
        for (index, (op, module)) in pipeline.ops.iter_mut().enumerate() {
            // Cooperative cancellation between ops: a job past its deadline
            // stops here instead of starting the next operator. The check is
            // also the heartbeat serve's health read checks.
            if let Err(reason) = ctx.cancel.check() {
                pipeline_span.attr("cancelled", reason.label());
                return Err(CoreError::Cancelled { reason });
            }
            let input = match op.inputs.len() {
                0 => Data::Null,
                1 => read(&env, (index, 0), &op.inputs[0])?,
                _ => {
                    let mut map = BTreeMap::new();
                    for (slot, var) in op.inputs.iter().enumerate() {
                        map.insert(var.clone(), read(&env, (index, slot), var)?);
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

/// Cancellable parallel map over owned items, each lane with a state of its
/// own: up to `threads` lanes, results in item order. A lane builds its state
/// with `init` before its first item and hands it to `f` with every item, so
/// `init` runs once per lane that maps an item, never per item. Every lane
/// checks `cancel` before each item (which also heartbeats the token), so a
/// fired deadline stops the whole scan within one item per lane instead of
/// finishing it. Returns `CoreError::Cancelled` if the token fired; partial
/// results are discarded. A panic in `f` propagates to the caller with its
/// original payload after all lanes have stopped (serve's per-job
/// `catch_unwind` isolation relies on this).
///
/// One lane (or fewer than two items) runs inline on the caller's thread.
/// Otherwise every lane runs on a scoped thread of its own, spawned for the
/// map and joined before it returns, and the caller only waits, so a lane
/// starts with an empty trace span stack and its spans are roots. A map
/// nested in another map's lane spawns threads of its own: lanes block on the
/// LLM, so waiting for a busy thread could starve it.
pub(crate) fn try_lane_map<T, U, S, I, F>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    init: I,
    f: F,
) -> Result<Vec<U>, CoreError>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    let count = items.len();
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 || count < 2 {
        let mut out = Vec::with_capacity(count);
        let mut state = None;
        for item in items {
            if let Err(reason) = cancel.check() {
                return Err(CoreError::Cancelled { reason });
            }
            out.push(f(state.get_or_insert_with(&init), item));
        }
        return Ok(out);
    }
    let chunk = count.div_ceil(threads);
    let (init, f) = (&init, &f);
    let mut items = items.into_iter();
    // Each handle is joined here, in item order, so `scope` has no panic of
    // its own to raise: a lane's result, or the payload it panicked with.
    let lanes: Vec<std::thread::Result<Vec<U>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..count.div_ceil(chunk))
            .map(|_| {
                let chunk: Vec<T> = items.by_ref().take(chunk).collect();
                let lane = move || {
                    let mut state = None;
                    let mut done = Vec::with_capacity(chunk.len());
                    for item in chunk {
                        if cancel.check().is_err() {
                            break;
                        }
                        done.push(f(state.get_or_insert_with(init), item));
                    }
                    done
                };
                std::thread::Builder::new()
                    .name("lingua-lane".into())
                    .spawn_scoped(scope, lane)
                    .expect("spawn a lane thread")
            })
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut results = Vec::with_capacity(count);
    for lane in lanes {
        // Re-raise the first payload in item order, what the module actually
        // threw, so the caller's panic isolation reports it.
        results.extend(lane.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
    }
    if let Some(reason) = cancel.status() {
        return Err(CoreError::Cancelled { reason });
    }
    assert_eq!(results.len(), count, "all items mapped when not cancelled");
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::modules::CustomModule;
    use crate::pipeline::{LogicalOp, Pipeline};
    use lingua_dataset::world::WorldSpec;
    use lingua_llm_sim::SimLlm;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};

    fn ctx() -> ExecContext {
        let world = WorldSpec::generate(14);
        ExecContext::new(Arc::new(SimLlm::with_seed(&world, 14)))
    }

    /// [`try_lane_map`] with no lane state.
    fn try_map<T: Send, U: Send>(
        items: Vec<T>,
        threads: usize,
        cancel: &CancelToken,
        f: impl Fn(T) -> U + Sync,
    ) -> Result<Vec<U>, CoreError> {
        try_lane_map(items, threads, cancel, || (), |_: &mut (), item| f(item))
    }

    /// [`try_map`] under a token that never fires.
    fn parallel_map<T: Send, U: Send>(
        items: Vec<T>,
        threads: usize,
        f: impl Fn(T) -> U + Sync,
    ) -> Vec<U> {
        try_map(items, threads, &CancelToken::unbounded(), f)
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
    fn the_env_holds_op_outputs_and_no_input() {
        let compiler = compiler_with_test_ops();
        let mut ctx = ctx();
        // `seed` is read twice, by a single-input and a multi-input op;
        // `unread` by no op; `a` is an output that a later op reads.
        let pipeline = Pipeline::new("t")
            .op(LogicalOp::new("exclaim").output("a").input("seed"))
            .op(LogicalOp::new("concat").output("b").input("seed").input("a"))
            .op(LogicalOp::new("exclaim").output("c").input("a"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let inputs = BTreeMap::from([
            ("seed".to_string(), Data::Str("go".into())),
            ("unread".to_string(), Data::Int(1)),
        ]);
        let report = Executor::run(&mut physical, &mut ctx, inputs).unwrap();
        assert_eq!(report.env.keys().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(report.get("b").unwrap(), &Data::Str("go!+go".into()));
        assert_eq!(report.get("c").unwrap(), &Data::Str("go!!".into()));
    }

    #[test]
    fn an_op_output_shadows_an_input_of_its_name() {
        let compiler = compiler_with_test_ops();
        let mut ctx = ctx();
        let pipeline = Pipeline::new("t")
            .op(LogicalOp::new("exclaim").output("x").input("x"))
            .op(LogicalOp::new("concat").output("y").input("x").input("x"))
            .op(LogicalOp::new("exclaim").output("z").input("x"));
        let mut physical = compiler.compile(&pipeline, &mut ctx).unwrap();
        let inputs = BTreeMap::from([("x".to_string(), Data::Str("in".into()))]);
        let report = Executor::run(&mut physical, &mut ctx, inputs).unwrap();
        assert_eq!(report.get("x").unwrap(), &Data::Str("in!".into()));
        assert_eq!(report.get("y").unwrap(), &Data::Str("in!".into()));
        assert_eq!(report.get("z").unwrap(), &Data::Str("in!!".into()));
    }

    #[test]
    fn parallel_map_matches_sequential() {
        let items: Vec<i64> = (0..1000).collect();
        let sequential: Vec<i64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let parallel = parallel_map(items.clone(), threads, |x| x * x);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Empty and tiny inputs are fine.
        assert!(parallel_map::<i64, i64>(Vec::new(), 4, |x| x).is_empty());
        assert_eq!(parallel_map(vec![5], 4, |x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_map_empty_input() {
        let empty: Vec<String> = Vec::new();
        let out = parallel_map(empty, 8, |s: String| s.len());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_single_item() {
        assert_eq!(parallel_map(vec!["only"], 1, |s| s.to_uppercase()), vec!["ONLY"]);
        assert_eq!(parallel_map(vec!["only"], 64, |s| s.to_uppercase()), vec!["ONLY"]);
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        let items = vec![10, 20, 30];
        // Thread count clamps to the item count; results stay ordered.
        assert_eq!(parallel_map(items.clone(), 100, |x| x / 10), vec![1, 2, 3]);
        assert_eq!(parallel_map(items, 0, |x| x / 10), vec![1, 2, 3]);
    }

    #[test]
    fn parallel_map_preserves_order_under_uneven_work() {
        // Earlier items sleep longer, so later chunks finish first; the
        // output must still line up slot-for-slot with the input.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map(items.clone(), 8, |i| {
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
            let err = try_map(items.clone(), threads, &token, |i| {
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
        let err = try_map(items, 4, &expired, |i| i).unwrap_err();
        assert_eq!(err, CoreError::Cancelled { reason: CancelReason::DeadlineExceeded });
    }

    #[test]
    fn parallel_map_propagates_the_original_panic_payload() {
        let items: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(items, 4, |i| {
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
            parallel_map(items, 4, |i| {
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
        // `PipelinedMapModule` is `try_lane_map` at `depth` lanes.
        let items: Vec<i64> = (0..200).collect();
        let sequential: Vec<i64> = items.iter().map(|x| x * 3).collect();
        let token = CancelToken::unbounded();
        for depth in [0, 1, 4, 16, 64] {
            let out = try_map(items.clone(), depth, &token, |x| x * 3).expect("live token");
            assert_eq!(out, sequential, "depth={depth}");
        }
    }

    #[test]
    fn pipelined_map_cancels_like_the_plain_variant() {
        use lingua_llm_sim::CancelReason;
        let items: Vec<u64> = (0..256).collect();
        let token = CancelToken::unbounded();
        let err = try_map(items, 8, &token, |i| {
            if i == 10 {
                token.cancel();
            }
            i
        })
        .unwrap_err();
        assert_eq!(err, CoreError::Cancelled { reason: CancelReason::Cancelled });
    }

    #[test]
    fn lanes_run_off_the_callers_thread_and_end_with_their_map() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static ENDED: AtomicUsize = AtomicUsize::new(0);
        /// Counts its thread's end: a thread-local's destructor runs as the
        /// thread exits, before a join of it returns.
        struct CountsItsEnd;
        impl Drop for CountsItsEnd {
            fn drop(&mut self) {
                ENDED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static END: CountsItsEnd = const { CountsItsEnd });
        // The lanes meet at a barrier, so each holds its own thread.
        const LANES: usize = 4;
        let barrier = Barrier::new(LANES);
        let lanes = parallel_map((0..LANES).collect(), LANES, |_| {
            END.with(|_| ());
            barrier.wait();
            let lane = std::thread::current();
            (lane.id(), lane.name().map(str::to_owned))
        });
        let threads: HashSet<_> = lanes.iter().map(|(id, _)| *id).collect();
        assert_eq!(threads.len(), LANES, "a thread per lane");
        assert!(!threads.contains(&std::thread::current().id()), "the caller only waits");
        assert!(lanes.iter().all(|(_, name)| name.as_deref() == Some("lingua-lane")));
        assert_eq!(ENDED.load(Ordering::SeqCst), LANES, "every lane thread ended with its map");
    }

    #[test]
    fn nested_maps_spawn_their_own_lanes_instead_of_starving() {
        // Sixteen inner lanes meet at one barrier, so the outer map only
        // completes if all of them (and the four outer lanes they run under)
        // hold a thread at once.
        const LANES: usize = 4;
        let barrier = Barrier::new(LANES * LANES);
        let outer: Vec<usize> = (0..LANES).collect();
        let out = parallel_map(outer, LANES, |o| {
            let inner: Vec<usize> = (0..LANES).collect();
            parallel_map(inner, LANES, |i| {
                barrier.wait();
                o * LANES + i
            })
        });
        assert_eq!(out.concat(), (0..LANES * LANES).collect::<Vec<_>>());
    }

    #[test]
    fn simllm_usage_counters_are_consistent_under_threads() {
        use lingua_llm_sim::{CompletionRequest, LlmService};

        let world = WorldSpec::generate(14);
        let svc = SimLlm::with_seed(&world, 14);
        // Distinct prompts from many threads: every call is billed once.
        let prompts: Vec<String> =
            (0..64).map(|i| format!("Summarize.\nText: document number {i}")).collect();
        let responses = parallel_map(prompts, 8, |p| svc.complete(&CompletionRequest::new(p)));
        assert_eq!(responses.len(), 64);
        let usage = svc.usage();
        assert_eq!(usage.calls, 64);
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
        let out = parallel_map(requests, 8, |_| {
            svc.complete(&CompletionRequest::new("Summarize.\nText: the contended document"))
        });
        assert!(out.windows(2).all(|w| w[0] == w[1]), "all callers see one answer");
        let usage = svc.usage();
        assert_eq!(usage.calls + usage.cached_calls, 64);
        assert!(usage.calls >= 1);
    }
}
