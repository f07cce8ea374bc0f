//! Conservation laws between the serving metrics and the trace stream.
//!
//! Every submission takes exactly one path through the server — executed,
//! coalesced, cache-served, timed out, failed, or rejected — and each path
//! increments exactly one counter and closes exactly one `serve_job` span
//! with a matching `path` attribute. These tests drive the paths through a
//! single-worker server and check the books balance both ways: counter
//! identities over the snapshot, and span-path tallies over the rebuilt
//! trace tree — the last one drives every way a job can end, with each
//! ending's journal record made to fail. (`prop_serve_trace.rs` re-checks
//! the invariants under arbitrary multi-worker pools.)

mod support;

use lingua_core::modules::{CustomModule, Module};
use lingua_core::{Compiler, ContextFactory, CoreError, Data};
use lingua_dataset::world::WorldSpec;
use lingua_durable::{Journal, JournalTuning, SimStorage};
use lingua_llm_sim::{SimLlm, Usage};
use lingua_ml::sync::{Condvar, Mutex};
use lingua_serve::{
    EscapePanic, JobStatus, MetricsSnapshot, PipelineServer, ServeConfig, ServeError, SubmitRequest,
};
use lingua_trace::{ring_tracer, SpanKind, TraceTree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::FailNextAppend;

/// A reusable latch: modules built over it block until the test opens it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    /// Modules that have reached the gate.
    arrived: AtomicUsize,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate { open: Mutex::new(false), cv: Condvar::new(), arrived: AtomicUsize::new(0) })
    }

    fn open(&self) {
        *self.open.lock() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock();
        while !*open {
            open = self.cv.wait(open);
        }
    }
}

fn test_compiler(gate: Arc<Gate>) -> Compiler {
    let mut compiler = Compiler::with_builtins();
    compiler.register("gate", move |_op, _ctx| {
        let gate = Arc::clone(&gate);
        Ok(Box::new(CustomModule::stateless("gate", move |input, _| {
            gate.wait();
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

/// Count `serve_job` spans whose terminal `path` attribute matches.
fn path_count(tree: &TraceTree, path: &str) -> u64 {
    tree.spans_of_kind(SpanKind::ServeJob)
        .iter()
        .filter(|j| j.attrs.get("path").map(String::as_str) == Some(path))
        .count() as u64
}

/// The books must balance: every accepted submission resolves to exactly one
/// terminal counter, and every counter maps onto a distinct span path.
fn assert_conserved(metrics: &MetricsSnapshot, tree: &TraceTree) {
    assert_eq!(
        metrics.accepted,
        metrics.completed
            + metrics.failed
            + metrics.timed_out
            + metrics.coalesced
            + metrics.cache_hits,
        "accepted submissions must all reach a terminal state after drain"
    );
    assert_eq!(metrics.queue_depth, 0, "drained server holds no queued jobs");
    assert_eq!(path_count(tree, "executed"), metrics.completed);
    assert_eq!(path_count(tree, "failed"), metrics.failed);
    assert_eq!(path_count(tree, "timeout"), metrics.timed_out);
    assert_eq!(path_count(tree, "dedup_hit"), metrics.coalesced);
    assert_eq!(path_count(tree, "cache_hit"), metrics.cache_hits);
    assert_eq!(path_count(tree, "rejected_full"), metrics.rejected);
    assert_eq!(path_count(tree, "journal_refused"), metrics.journal_refused);
    assert_eq!(
        tree.spans_of_kind(SpanKind::ServeJob).len() as u64,
        metrics.accepted + metrics.rejected + metrics.journal_refused,
        "every submission — accepted, rejected or refused — leaves exactly one span"
    );
}

#[test]
fn every_submission_path_balances_counters_against_the_trace() {
    let world = WorldSpec::generate(47);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 47));
    let gate = Gate::new();
    let compiler = test_compiler(Arc::clone(&gate));
    let (tracer, sink) = ring_tracer(1 << 14);
    let factory = ContextFactory::new(llm).with_tracer(tracer.clone());
    let server = PipelineServer::start(
        factory,
        ServeConfig { workers: Some(1), queue_capacity: 3, ..Default::default() },
    )
    .unwrap();
    server.register_dsl("gated", GATED_LLM_PIPELINE, &compiler).unwrap();

    let request = |text: &str| SubmitRequest::new("gated").input("text", Data::Str(text.into()));

    // Occupy the single worker, then fill the queue behind it.
    let blocker = server.submit(request("blocker")).unwrap();
    wait_until("worker to pick up the blocker", || blocker.status() == JobStatus::Running);
    let queued_a = server.submit(request("queued a")).unwrap();
    let queued_b = server.submit(request("queued b")).unwrap();
    let stale = server.submit(request("stale").timeout(Duration::ZERO)).unwrap();
    // Queue at capacity: the next distinct submission is rejected...
    let err = server.submit(request("overflow")).unwrap_err();
    assert_eq!(err, ServeError::Full { capacity: 3 });
    // ...but duplicates of the running job coalesce without touching the queue.
    let dupes: Vec<_> = (0..2).map(|_| server.submit(request("blocker")).unwrap()).collect();

    gate.open();
    let leader = blocker.wait().unwrap();
    for dupe in &dupes {
        assert!(Arc::ptr_eq(&leader, &dupe.wait().unwrap()), "coalesced jobs share the output");
    }
    assert!(queued_a.wait().is_ok());
    assert!(queued_b.wait().is_ok());
    assert!(matches!(stale.wait(), Err(ServeError::Timeout { .. })));
    // Sequential repeat of a completed job: the result-cache path.
    server.run(request("queued a")).unwrap();

    let metrics = server.metrics();
    drop(server);
    assert_eq!(tracer.dropped(), 0, "the ring must be sized for the workload");
    let tree = TraceTree::build(&sink.events()).expect("trace stream is well-formed");

    // Exactly the planned tallies, then the general conservation law.
    assert_eq!(metrics.accepted, 7, "blocker + 2 queued + stale + 2 dupes + cache repeat");
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.completed, 3);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.timed_out, 1);
    assert_eq!(metrics.coalesced, 2);
    assert_eq!(metrics.cache_hits, 1);
    assert_conserved(&metrics, &tree);

    // Lifecycle instants: executed jobs were queued then dequeued; the stale
    // job was queued but never handed to the executor. The `queued` instant
    // is emitted before the bounded push (so it always precedes the worker's
    // `dequeued`), which means a rejected submission carries it too.
    let jobs = tree.spans_of_kind(SpanKind::ServeJob);
    for job in &jobs {
        let names: Vec<&str> = job.instants.iter().map(|i| i.name.as_str()).collect();
        match job.attrs.get("path").map(String::as_str) {
            Some("executed") => assert_eq!(names, ["queued", "dequeued"]),
            Some("timeout") | Some("rejected_full") => assert_eq!(names, ["queued"]),
            _ => assert!(names.is_empty(), "short-circuit paths emit no lifecycle instants"),
        }
    }

    // Cost conservation: the trace attributes every metered token. Only
    // executed jobs carry usage, and their rollups sum to the server's bill.
    let mut rolled = Usage::default();
    for job in &jobs {
        let rollup = job.rollup();
        if job.attrs.get("path").map(String::as_str) == Some("executed") {
            assert!(rollup.calls >= 1, "an executed llm pipeline bills at least one call");
        } else {
            assert_eq!(rollup, Usage::default(), "non-executed paths cost nothing");
        }
        rolled.merge(&rollup);
    }
    assert_eq!(rolled, metrics.llm, "span rollups account for the aggregate bill exactly");
    let summary = metrics.trace.as_ref().expect("traced factory folds a summary in");
    assert_eq!(summary.tokens_in, metrics.llm.tokens_in);
    assert_eq!(summary.tokens_out, metrics.llm.tokens_out);
    assert_eq!(summary.dropped, 0);
}

/// A submission the journal refuses is a path like any other: its
/// `serve_job` span is closed, naming it. (`TraceTree::build` rejects a
/// stream with a begin edge and no end edge.)
#[test]
fn a_submission_the_journal_refuses_closes_its_span() {
    let world = WorldSpec::generate(47);
    let llm: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 47));
    let (tracer, sink) = ring_tracer(1 << 10);
    let storage = FailNextAppend::over(SimStorage::new());
    let server = PipelineServer::start(
        ContextFactory::new(llm).with_tracer(tracer.clone()),
        ServeConfig {
            workers: Some(1),
            journal: Some(JournalTuning::over(storage.clone())),
            ..Default::default()
        },
    )
    .unwrap();
    server.register_dsl("gated", GATED_LLM_PIPELINE, &test_compiler(Gate::new())).unwrap();

    storage.arm();
    let err = server
        .submit(SubmitRequest::new("gated").input("text", Data::Str("refused".into())))
        .expect_err("the accept record cannot be journaled");
    assert!(matches!(err, ServeError::Journal { .. }), "got {err:?}");
    let metrics = server.metrics();
    drop(server);

    assert_eq!((metrics.accepted, metrics.journal_refused), (0, 1), "refused is counted");
    assert_eq!(metrics.journal_append_errors, 0, "a refusal is not a lost record");
    assert!(metrics.report().contains("journal refused 1"), "{}", metrics.report());
    assert_eq!(tracer.dropped(), 0);
    let tree = TraceTree::build(&sink.events()).expect("every begun span is closed");
    assert_eq!(tree.spans_of_kind(SpanKind::ServeJob).len(), 1);
    assert_eq!(path_count(&tree, "journal_refused"), 1);
    assert_conserved(&metrics, &tree);
}

/// The terminal counters and `journal_append_errors`, for telling which of
/// them a step moved.
fn books(m: &MetricsSnapshot) -> [(&'static str, u64); 11] {
    [
        ("completed", m.completed),
        ("cache_hits", m.cache_hits),
        ("coalesced", m.coalesced),
        ("rejected", m.rejected),
        ("journal_refused", m.journal_refused),
        ("timed_out", m.timed_out),
        ("cancelled", m.cancelled),
        ("deadline_exceeded", m.deadline_exceeded),
        ("failed", m.failed),
        ("panicked", m.panicked),
        ("journal_append_errors", m.journal_append_errors),
    ]
}

/// Each counter that moved between two snapshots, once per unit it moved.
fn moved(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Vec<&'static str> {
    let (before, after) = (books(before), books(after));
    let deltas = before.iter().zip(&after).map(|((name, b), (_, a))| (*name, a - b));
    deltas.flat_map(|(name, delta)| std::iter::repeat(name).take(delta as usize)).collect()
}

/// Every way a job ends, one at a time, on one worker over a journal whose
/// appends fail on demand. For each ending: its waiter wakes with its output
/// or typed error, exactly its counter moves (by one), the one journal
/// append it makes — armed to fail — is counted in `journal_append_errors`,
/// and its `serve_job` span is closed with its path. `ShuttingDown` appends
/// nothing: the job stays journaled as pending.
#[test]
fn every_way_a_job_ends_settles_its_span_waiter_counter_and_journal_record() {
    let world = WorldSpec::generate(48);
    let (tracer, sink) = ring_tracer(1 << 12);
    let log = SimStorage::new();
    let storage = FailNextAppend::over(log.clone());
    let mut server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, 48))).with_tracer(tracer.clone()),
        ServeConfig {
            workers: Some(1),
            queue_capacity: 1,
            max_worker_restarts: 0,
            journal: Some(JournalTuning::over(storage.clone())),
            ..Default::default()
        },
    )
    .unwrap();
    // `arm` runs inside its job, after the `accepted` and `started` records,
    // so the append it fails is the job's terminal record.
    let gate = Gate::new();
    let mut compiler = test_compiler(Arc::clone(&gate));
    let armed = Arc::clone(&storage);
    compiler.register("arm", move |_op, _ctx| {
        let storage = Arc::clone(&armed);
        Ok(Box::new(CustomModule::stateless("arm", move |input, _| {
            storage.arm();
            Ok(input)
        })) as Box<dyn Module>)
    });
    compiler.register("fail", |_op, _ctx| {
        Ok(Box::new(CustomModule::stateless("fail", |_, _| {
            Err(CoreError::Module { module: "fail".into(), message: "deliberate".into() })
        })) as Box<dyn Module>)
    });
    compiler.register("nap", |_op, _ctx| {
        Ok(Box::new(CustomModule::stateless("nap", |input, _| {
            std::thread::sleep(Duration::from_millis(300));
            Ok(input)
        })) as Box<dyn Module>)
    });
    compiler.register("kill", |_op, _ctx| {
        Ok(Box::new(CustomModule::stateless("kill", |_, _| std::panic::panic_any(EscapePanic)))
            as Box<dyn Module>)
    });
    for (id, body) in [
        ("echo", "out = arm(text);"),
        ("fails", "held = arm(text); out = fail(held);"),
        ("late", "held = arm(text); out = nap(held);"),
        ("kill", "held = arm(text); out = kill(held);"),
        ("park", "out = gate(text);"),
    ] {
        server.register_dsl(id, &format!("pipeline {id} {{ {body} }}"), &compiler).unwrap();
    }
    let request =
        |id: &str, text: &str| SubmitRequest::new(id).input("text", Data::Str(text.into()));
    let mut before = server.metrics();
    let mut step = |server: &PipelineServer, expected: &[&str]| {
        let after = server.metrics();
        assert_eq!(moved(&before, &after), expected);
        before = after;
    };

    let executed = server.run(request("echo", "once")).unwrap();
    step(&server, &["completed", "journal_append_errors"]);
    let cached = server.run(request("echo", "once")).unwrap();
    assert!(Arc::ptr_eq(&executed, &cached));
    step(&server, &["cache_hits"]);
    let err = server.run(request("fails", "fails")).unwrap_err();
    assert!(matches!(err, ServeError::Core(CoreError::Module { .. })), "got {err:?}");
    step(&server, &["failed", "journal_append_errors"]);
    let err = server.run(request("late", "late").timeout(Duration::from_millis(150))).unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "got {err:?}");
    step(&server, &["deadline_exceeded", "journal_append_errors"]);

    // Park a job at the gate: its `started` record is written before it runs.
    let blocker = server.submit(request("park", "blocker")).unwrap();
    wait_until("the blocker to reach the gate", || gate.arrived.load(Ordering::SeqCst) == 1);
    let follower = server.submit(request("park", "blocker")).unwrap();
    step(&server, &["coalesced"]);
    storage.arm();
    let err = server.submit(request("park", "refused")).unwrap_err();
    assert!(matches!(err, ServeError::Journal { .. }), "got {err:?}");
    step(&server, &["journal_refused"]);
    let stale = server.submit(request("park", "stale").timeout(Duration::ZERO)).unwrap();
    // The overflow's `accepted` record goes through; its `failed` does not.
    storage.arm_after(1, 1);
    let err = server.submit(request("park", "overflow")).unwrap_err();
    assert_eq!(err, ServeError::Full { capacity: 1 });
    step(&server, &["rejected", "journal_append_errors"]);
    // The blocker and then the stale job end back to back on the worker.
    storage.arm_after(0, 2);
    blocker.cancel();
    gate.open();
    assert_eq!(blocker.wait().unwrap_err(), ServeError::Cancelled);
    assert_eq!(follower.wait().unwrap_err(), ServeError::Cancelled, "it shares the ending");
    assert!(matches!(stale.wait(), Err(ServeError::Timeout { .. })));
    step(&server, &["timed_out", "cancelled", "journal_append_errors", "journal_append_errors"]);
    match server.run(request("kill", "kill")).unwrap_err() {
        ServeError::Panicked { pipeline, payload } => {
            assert_eq!(pipeline, "kill");
            assert!(payload.contains("EscapePanic"), "{payload}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    step(&server, &["panicked", "journal_append_errors"]);
    // The only worker is dead and not restarted: this job outlives the pool.
    wait_until("the killed worker to die", || server.live_worker_count() == 0);
    let orphan = server.submit(request("park", "orphan")).unwrap();
    server.shutdown();
    assert_eq!(orphan.wait().unwrap_err(), ServeError::ShuttingDown);
    step(&server, &["failed"]);

    let metrics = server.metrics();
    assert_eq!(metrics.accepted, metrics.finished() + metrics.deduped(), "accepted == Σ terminals");
    assert_eq!(metrics.queue_depth, 0);
    drop(server);
    assert_eq!(tracer.dropped(), 0);
    let tree = TraceTree::build(&sink.events()).expect("every begun span is closed");
    for path in [
        "executed",
        "cache_hit",
        "dedup_hit",
        "rejected_full",
        "journal_refused",
        "timeout",
        "cancelled",
        "deadline_exceeded",
        "failed",
        "panicked",
        "shutdown",
    ] {
        assert_eq!(path_count(&tree, path), 1, "path `{path}`");
    }
    assert_eq!(
        tree.spans_of_kind(SpanKind::ServeJob).len() as u64,
        metrics.accepted + metrics.rejected + metrics.journal_refused,
    );
    // Every terminal record failed, so the journal holds each of the eight
    // accepted records as pending — the shut-down job by design.
    let (_journal, recovered) = Journal::open(JournalTuning::sim(log)).expect("the log reopens");
    assert_eq!((recovered.finished.len(), recovered.pending.len()), (0, 8));
}
