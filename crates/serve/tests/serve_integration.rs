//! End-to-end serving tests: concurrent dedup, admission control,
//! priority, timeouts, and correctness under a multi-worker pool.

use lingua_core::modules::{CustomModule, Module};
use lingua_core::{Compiler, ContextFactory, Data, Executor, Pipeline};
use lingua_dataset::world::WorldSpec;
use lingua_llm_sim::{LlmService, SimLlm};
use lingua_ml::sync::{Condvar, Mutex};
use lingua_serve::{JobStatus, PipelineServer, Priority, ServeConfig, ServeError, SubmitRequest};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reusable latch: modules built over it block until the test opens it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate { open: Mutex::new(false), cv: Condvar::new() })
    }

    fn open(&self) {
        *self.open.lock() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock();
        while !*open {
            open = self.cv.wait(open);
        }
    }
}

/// Builtins plus two test ops: `gate` (passes input through once the gate
/// opens) and `log` (appends the rendered input to a shared trace).
fn test_compiler(gate: Arc<Gate>, log: Arc<Mutex<Vec<String>>>) -> Compiler {
    let mut compiler = Compiler::with_builtins();
    compiler.register("gate", move |_op, _ctx| {
        let gate = Arc::clone(&gate);
        Ok(Box::new(CustomModule::stateless("gate", move |input, _| {
            gate.wait();
            Ok(input)
        })) as Box<dyn Module>)
    });
    compiler.register("log", move |_op, _ctx| {
        let log = Arc::clone(&log);
        Ok(Box::new(CustomModule::stateless("log", move |input, _| {
            log.lock().push(input.render());
            Ok(input)
        })) as Box<dyn Module>)
    });
    compiler
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

const GATED_LLM_PIPELINE: &str = r#"pipeline gated {
    held = gate(text);
    out = summarize(held) using llm with { desc: "summarize the following document" };
}"#;

#[test]
fn concurrent_identical_submissions_execute_once() {
    let world = WorldSpec::generate(31);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 31));
    let gate = Gate::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let compiler = test_compiler(Arc::clone(&gate), log);
    let server = PipelineServer::start(
        ContextFactory::new(llm.clone()),
        ServeConfig { workers: Some(2), ..Default::default() },
    )
    .unwrap();
    server.register_dsl("gated", GATED_LLM_PIPELINE, &compiler).unwrap();

    // Baseline: what one run costs (gate open, unique input).
    gate.open();
    let usage_before = llm.usage();
    let baseline = server
        .run(SubmitRequest::new("gated").input("text", Data::Str("a unique warmup doc".into())))
        .unwrap();
    let single_run_calls = llm.usage().since(&usage_before).calls;
    assert!(single_run_calls >= 1);
    assert_eq!(baseline.llm.calls, single_run_calls, "per-job meter agrees with the service");

    // N identical submissions while the leader is held at the gate: the
    // followers must coalesce onto the leader's execution.
    let gate = Gate::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let compiler = test_compiler(Arc::clone(&gate), log);
    server.register_dsl("gated", GATED_LLM_PIPELINE, &compiler).unwrap();
    let usage_before = llm.usage();
    let metrics_before = server.metrics();
    let request = SubmitRequest::new("gated").input("text", Data::Str("the hot document".into()));
    let n: u64 = 6;
    let handles: Vec<_> = (0..n).map(|_| server.submit(request.clone()).unwrap()).collect();
    gate.open();
    let outputs: Vec<_> = handles.iter().map(|h| h.wait().unwrap()).collect();

    // One execution, one shared output.
    for output in &outputs[1..] {
        assert!(Arc::ptr_eq(&outputs[0], output), "followers share the leader's output");
    }
    let metrics = server.metrics();
    assert_eq!(metrics.deduped() - metrics_before.deduped(), n - 1, "dedup counter = N-1");
    assert_eq!(metrics.completed - metrics_before.completed, 1, "exactly one execution");
    // LLM bill for N submissions == bill for a single run.
    assert_eq!(llm.usage().since(&usage_before).calls, single_run_calls);

    // And once completed, the same request is a result-cache hit.
    let cached = server.run(request).unwrap();
    assert!(Arc::ptr_eq(&outputs[0], &cached));
    assert_eq!(llm.usage().since(&usage_before).calls, single_run_calls);
    assert_eq!(server.metrics().cache_hits - metrics_before.cache_hits, 1);
}

#[test]
fn bounded_queue_rejects_overflow_with_typed_full() {
    let world = WorldSpec::generate(32);
    let gate = Gate::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let compiler = test_compiler(Arc::clone(&gate), log);
    let server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, 32))),
        ServeConfig { workers: Some(1), queue_capacity: 2, ..Default::default() },
    )
    .unwrap();
    server.register_dsl("hold", r#"pipeline hold { out = gate(text); }"#, &compiler).unwrap();

    let submit = |text: &str| {
        server.submit(SubmitRequest::new("hold").input("text", Data::Str(text.into())))
    };
    // Occupy the single worker, then fill the queue.
    let blocker = submit("blocker").unwrap();
    wait_until("worker to pick up the blocker", || blocker.status() == JobStatus::Running);
    let queued_a = submit("queued a").unwrap();
    let queued_b = submit("queued b").unwrap();
    // Queue is at capacity: admission control rejects with a typed error.
    let err = submit("overflow").unwrap_err();
    assert_eq!(err, ServeError::Full { capacity: 2 });
    assert_eq!(server.metrics().rejected, 1);
    assert_eq!(server.metrics().queue_depth, 2);

    gate.open();
    assert!(blocker.wait().is_ok());
    assert!(queued_a.wait().is_ok());
    assert!(queued_b.wait().is_ok());
    assert_eq!(server.metrics().queue_depth, 0);
}

#[test]
fn high_priority_jobs_jump_the_queue() {
    let world = WorldSpec::generate(33);
    let gate = Gate::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let compiler = test_compiler(Arc::clone(&gate), Arc::clone(&log));
    let server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, 33))),
        ServeConfig { workers: Some(1), ..Default::default() },
    )
    .unwrap();
    server
        .register_dsl(
            "traced",
            r#"pipeline traced { held = gate(text); out = log(held); }"#,
            &compiler,
        )
        .unwrap();

    let submit = |text: &str, priority: Priority| {
        server
            .submit(
                SubmitRequest::new("traced")
                    .input("text", Data::Str(text.into()))
                    .priority(priority),
            )
            .unwrap()
    };
    let blocker = submit("blocker", Priority::Normal);
    wait_until("worker to pick up the blocker", || blocker.status() == JobStatus::Running);
    let handles = vec![
        blocker,
        submit("normal 1", Priority::Normal),
        submit("normal 2", Priority::Normal),
        submit("urgent", Priority::High),
    ];
    gate.open();
    for handle in &handles {
        assert!(handle.wait().is_ok());
    }
    let order = log.lock().clone();
    assert_eq!(order, vec!["blocker", "urgent", "normal 1", "normal 2"]);
}

#[test]
fn queue_timeouts_cancel_stale_jobs() {
    let world = WorldSpec::generate(34);
    let gate = Gate::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let compiler = test_compiler(Arc::clone(&gate), log);
    let server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, 34))),
        ServeConfig { workers: Some(1), ..Default::default() },
    )
    .unwrap();
    server.register_dsl("hold", r#"pipeline hold { out = gate(text); }"#, &compiler).unwrap();

    let blocker = server
        .submit(SubmitRequest::new("hold").input("text", Data::Str("blocker".into())))
        .unwrap();
    wait_until("worker to pick up the blocker", || blocker.status() == JobStatus::Running);
    let stale = server
        .submit(
            SubmitRequest::new("hold")
                .input("text", Data::Str("stale".into()))
                .timeout(Duration::ZERO),
        )
        .unwrap();
    gate.open();
    assert!(blocker.wait().is_ok());
    assert!(matches!(stale.wait(), Err(ServeError::Timeout { .. })));
    assert_eq!(server.metrics().timed_out, 1);
}

#[test]
fn multi_worker_results_match_direct_execution() {
    let world = WorldSpec::generate(35);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 35));
    let factory = ContextFactory::new(llm.clone());
    let compiler = Compiler::with_builtins();
    let source = r#"pipeline summ {
        out = summarize(text) using llm with { desc: "summarize the following document" };
    }"#;

    // Direct (unserved) reference runs.
    let mut ctx = factory.build();
    let logical = Pipeline::parse(source).unwrap();
    let mut direct = compiler.compile(&logical, &mut ctx).unwrap();
    let texts: Vec<String> =
        (0..24).map(|i| format!("report {i} on the quarterly beer catalogue")).collect();
    let expected: Vec<Data> = texts
        .iter()
        .map(|text| {
            let mut env = BTreeMap::new();
            env.insert("text".to_string(), Data::Str(text.clone()));
            let report = Executor::run(&mut direct, &mut ctx, env).unwrap();
            report.get("out").unwrap().clone()
        })
        .collect();

    // Served runs across 4 workers (dedup off: every job must really run).
    let server = PipelineServer::start(
        factory,
        ServeConfig {
            workers: Some(4),
            dedup_inflight: false,
            result_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    server.register_dsl("summ", source, &compiler).unwrap();
    let handles: Vec<_> = texts
        .iter()
        .map(|text| {
            server
                .submit(SubmitRequest::new("summ").input("text", Data::Str(text.clone())))
                .unwrap()
        })
        .collect();
    for (handle, expected) in handles.iter().zip(&expected) {
        let output = handle.wait().unwrap();
        assert_eq!(output.get("out").unwrap(), expected, "served == direct");
        assert!(output.llm.calls >= 1);
    }
    let metrics = server.metrics();
    assert_eq!(metrics.completed, texts.len() as u64);
    assert_eq!(metrics.deduped(), 0);
    assert!(metrics.p95_latency_ms >= metrics.p50_latency_ms);
}
