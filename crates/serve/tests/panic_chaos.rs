//! Chaos tests for supervised execution: panicking pipelines — and pipelines
//! whose replication panics — must fail *alone*, killed workers must be
//! resurrected, deadlines must be honoured
//! in bounded time, and the serving conservation law must hold under
//! contention — `accepted == finished() + deduped()` once every waiter has
//! returned, with `llm + llm_partial` reconciling against the shared
//! service's ledger to the token.

use lingua_core::modules::{CustomModule, Module, ModuleKind, PipelinedMapModule};
use lingua_core::{
    Compiler, ContextFactory, CoreError, Data, ExecContext, LogicalOp, PhysicalPipeline, TrapKind,
};
use lingua_dataset::world::WorldSpec;
use lingua_gateway::{FaultInjector, FaultPlan, Gateway, ServiceTransport};
use lingua_llm_sim::{LlmService, SimLlm};
use lingua_ml::sync::{Condvar, Mutex};
use lingua_serve::{
    EscapePanic, JobStatus, PipelineServer, ServeConfig, ServeError, SubmitRequest,
};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Builtins plus the chaos ops:
///
/// * `boom` — panics with a string payload (contained: the worker survives)
/// * `kill` — panics with [`EscapePanic`] (kills the worker thread)
/// * `snooze` — sleeps ~60 ms, then passes its input through
/// * `gate` — blocks until the test opens the latch
/// * `trap` — fails with a script fuel trap
fn chaos_compiler(gate: Arc<Gate>) -> Compiler {
    let mut compiler = Compiler::with_builtins();
    compiler.register("boom", |_op, _ctx| {
        Ok(Box::new(CustomModule::stateless("boom", |_, _| {
            panic!("chaos: deliberate pipeline panic");
        })) as Box<dyn Module>)
    });
    compiler.register("kill", |_op, _ctx| {
        Ok(Box::new(CustomModule::stateless("kill", |_, _| {
            std::panic::panic_any(EscapePanic);
        })) as Box<dyn Module>)
    });
    compiler.register("snooze", |_op, _ctx| {
        Ok(Box::new(CustomModule::stateless("snooze", |input, _| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(input)
        })) as Box<dyn Module>)
    });
    compiler.register("gate", move |_op, _ctx| {
        let gate = Arc::clone(&gate);
        Ok(Box::new(CustomModule::stateless("gate", move |input, _| {
            gate.wait();
            Ok(input)
        })) as Box<dyn Module>)
    });
    compiler.register("trap", |_op, _ctx| {
        Ok(Box::new(CustomModule::stateless("trap", |_, _| {
            Err(CoreError::Trap { module: "trap".into(), trap: TrapKind::OutOfFuel })
        })) as Box<dyn Module>)
    });
    compiler
}

fn chaos_server(workers: usize, gate: Arc<Gate>, llm: Arc<SimLlm>) -> PipelineServer {
    chaos_server_with(ServeConfig { workers: Some(workers), ..Default::default() }, gate, llm)
}

/// A server on `config` with no result cache: a chaos job submitted again
/// after it ended must really run again.
fn chaos_server_with(config: ServeConfig, gate: Arc<Gate>, llm: Arc<SimLlm>) -> PipelineServer {
    let config = ServeConfig { result_cache_capacity: 0, ..config };
    let server = PipelineServer::start(ContextFactory::new(llm), config).unwrap();
    let compiler = chaos_compiler(gate);
    server.register_dsl("boom", r#"pipeline boom { out = boom(text); }"#, &compiler).unwrap();
    server.register_dsl("kill", r#"pipeline kill { out = kill(text); }"#, &compiler).unwrap();
    server.register_dsl("slow", r#"pipeline slow { out = snooze(text); }"#, &compiler).unwrap();
    server.register_dsl("hold", r#"pipeline hold { out = gate(text); }"#, &compiler).unwrap();
    server.register_dsl("trap", r#"pipeline trap { out = trap(text); }"#, &compiler).unwrap();
    server
        .register_dsl(
            "summ",
            r#"pipeline summ {
                out = summarize(text) using llm with { desc: "summarize the following document" };
            }"#,
            &compiler,
        )
        .unwrap();
    server
}

fn sim(seed: u64) -> Arc<SimLlm> {
    let world = WorldSpec::generate(seed);
    Arc::new(SimLlm::with_seed(&world, seed))
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_panicking_pipeline_fails_alone_and_the_worker_survives() {
    let gate = Gate::new();
    gate.open();
    let server = chaos_server(2, gate, sim(71));

    let boom = server
        .submit(SubmitRequest::new("boom").input("text", Data::Str("goes bang".into())))
        .unwrap();
    let err = boom.wait().unwrap_err();
    match err {
        ServeError::Panicked { pipeline, payload } => {
            assert_eq!(pipeline, "boom");
            assert!(payload.contains("deliberate pipeline panic"), "payload kept: {payload}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }

    // The pool never shrank: the panic was contained at the job boundary,
    // so no restart was needed and ordinary work keeps flowing.
    let healthy = server
        .run(SubmitRequest::new("summ").input("text", Data::Str("life goes on".into())))
        .unwrap();
    assert!(healthy.get("out").is_ok());
    let snap = server.metrics();
    assert_eq!(snap.panicked, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.health.live_workers, 2);
    assert_eq!(snap.health.workers_restarted, 0, "contained panics don't burn restarts");
}

/// A `PipelinedMapModule` runs its elements on scoped lane threads. A lane
/// that panics must reach the caller as the module's own message (not the
/// scope's), and — DESIGN §9 — a lane that dies *holding a lock its siblings
/// need* must not wedge them: the tally lock below is taken by every
/// element of every job.
#[test]
fn a_panic_inside_a_pipelined_map_lane_keeps_its_message_and_wedges_no_lock() {
    let gate = Gate::new();
    gate.open();
    let server = chaos_server(2, gate, sim(78));
    let tally = Arc::new(Mutex::new(Vec::<String>::new()));
    let lanes = {
        let tally = Arc::clone(&tally);
        PipelinedMapModule::new("lanes", 4, move || {
            let tally = Arc::clone(&tally);
            Box::new(CustomModule::stateless("lane", move |input, _| {
                let text = input.as_str().expect("string elements").to_string();
                let mut seen = tally.lock();
                if text.starts_with("cursed") {
                    panic!("lane blew up on element `{text}`");
                }
                seen.push(text);
                Ok(input)
            })) as Box<dyn Module>
        })
    };
    let pipeline = PhysicalPipeline {
        name: "lanes".into(),
        ops: vec![(LogicalOp::new("lanes").output("out").input("batch"), Box::new(lanes) as _)],
    };
    server.register_pipeline("lanes", pipeline).unwrap();
    let batch = |job: &str, cursed: &[usize]| {
        let items = (0..8).map(|i| {
            let prefix = if cursed.contains(&i) { "cursed" } else { "fine" };
            Data::Str(format!("{prefix} {job}/{i}"))
        });
        SubmitRequest::new("lanes").input("batch", Data::List(items.collect()))
    };

    // Two elements panic on different lanes; the first in item order wins.
    let doomed = server.submit(batch("doomed", &[5, 2])).unwrap();
    let siblings: Vec<_> =
        (0..4).map(|job| server.submit(batch(&format!("ok{job}"), &[])).unwrap()).collect();
    match doomed.wait().unwrap_err() {
        ServeError::Panicked { pipeline, payload } => {
            assert_eq!(pipeline, "lanes");
            assert_eq!(payload, "lane blew up on element `cursed doomed/2`");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    for sibling in &siblings {
        let output = sibling.wait().expect("siblings take the same lock and complete");
        assert_eq!(output.get("out").unwrap().as_list().unwrap().len(), 8);
    }
    let snap = server.metrics();
    assert_eq!((snap.panicked, snap.completed), (1, 4));
    assert_eq!(snap.health.live_workers, 2);
    assert_eq!(snap.health.workers_restarted, 0, "contained at the job boundary");
    // The lock the dead lanes held still works, and holds what they wrote.
    let seen = tally.lock();
    assert_eq!(seen.iter().filter(|text| text.contains("ok")).count(), 32);
    assert!(seen.iter().all(|text| text.starts_with("fine")));
}

/// A replicable module whose every replica but the first panics while it is
/// made. Registration's replication probe takes the first, so the worker's
/// own replication is what panics.
struct FragileReplica(Arc<AtomicUsize>);

impl Module for FragileReplica {
    fn name(&self) -> &str {
        "fragile"
    }
    fn kind(&self) -> ModuleKind {
        ModuleKind::Custom
    }
    fn invoke(&mut self, input: Data, _ctx: &mut ExecContext) -> Result<Data, CoreError> {
        Ok(input)
    }
    fn fresh_instance(&self) -> Option<Box<dyn Module>> {
        if self.0.fetch_add(1, Ordering::SeqCst) > 0 {
            panic!("chaos: replica blew up while being made");
        }
        Some(Box::new(FragileReplica(Arc::clone(&self.0))))
    }
}

/// Replication runs a user module's `fresh_instance` in the worker, so it is
/// contained like execution: the job fails `Panicked`, its waiter wakes, an
/// identical resubmission runs (and fails) afresh instead of coalescing onto
/// a dead job, and the worker survives without a restart.
#[test]
fn a_replica_that_panics_while_being_made_fails_its_job_and_hangs_no_waiter() {
    let server = PipelineServer::start(
        ContextFactory::new(sim(79)),
        ServeConfig { workers: Some(1), ..Default::default() },
    )
    .unwrap();
    let module = FragileReplica(Arc::new(AtomicUsize::new(0)));
    let pipeline = PhysicalPipeline {
        name: "fragile".into(),
        ops: vec![(LogicalOp::new("fragile").output("out").input("text"), Box::new(module) as _)],
    };
    server.register_pipeline("fragile", pipeline).unwrap();

    for attempt in 0..2 {
        let handle = server
            .submit(SubmitRequest::new("fragile").input("text", Data::Str("same input".into())))
            .unwrap();
        match handle.wait_timeout(Duration::from_secs(5)) {
            Some(Err(ServeError::Panicked { pipeline, payload })) => {
                assert_eq!(pipeline, "fragile");
                assert!(payload.contains("blew up while being made"), "payload kept: {payload}");
            }
            other => panic!("attempt {attempt}: expected Panicked, got {other:?}"),
        }
    }
    let snap = server.metrics();
    assert_eq!((snap.panicked, snap.coalesced, snap.completed), (2, 0, 0));
    assert_eq!(snap.health.live_workers, 1);
    assert_eq!(snap.health.workers_restarted, 0, "contained: no restart burned");
    assert_eq!(snap.accepted, snap.finished() + snap.deduped());
}

#[test]
fn escaped_panics_kill_workers_and_the_supervisor_restores_the_pool() {
    let gate = Gate::new();
    gate.open();
    let server = chaos_server(4, gate, sim(72));

    // Interleave worker-killing jobs with ordinary ones under load.
    let kills: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit(SubmitRequest::new("kill").input("text", Data::Str(format!("kill {i}"))))
                .unwrap()
        })
        .collect();
    let normals: Vec<_> = (0..12)
        .map(|i| {
            server
                .submit(
                    SubmitRequest::new("summ")
                        .input("text", Data::Str(format!("quarterly report {i}"))),
                )
                .unwrap()
        })
        .collect();

    // Zero lost jobs: every kill job reports the panic, every normal job
    // completes — even though workers died mid-stream.
    for kill in &kills {
        assert!(matches!(kill.wait(), Err(ServeError::Panicked { .. })));
    }
    for normal in &normals {
        assert!(normal.wait().is_ok(), "in-flight work survives worker deaths");
    }

    // Every killed worker starts its replacement — once its kill job is
    // settled, so the last may still be under way — and the pool is at full
    // strength again.
    wait_until("every killed worker to restart", || server.metrics().health.workers_restarted == 6);
    let snap = server.metrics();
    assert_eq!(snap.panicked, 6);
    assert_eq!(snap.completed, 12);
    assert_eq!(snap.health.live_workers, 4, "pool restored to 4 live workers");
    assert_eq!(snap.health.workers_gave_up, 0, "budgets were nowhere near exhausted");
    assert_eq!(snap.accepted, snap.finished(), "no job was lost or double-counted");
}

/// Submit a `kill` job and wait for its error.
fn kill(server: &PipelineServer, i: usize) -> ServeError {
    let handle = server
        .submit(SubmitRequest::new("kill").input("text", Data::Str(format!("kill {i}"))))
        .unwrap();
    handle.wait().unwrap_err()
}

/// A one-worker pool with a budget of one restart, killed twice: the first
/// death restarts the slot, the second gives it up. A job queued behind the
/// dead pool never runs, and `shutdown` ends it typed.
#[test]
fn a_slot_past_its_restart_budget_gives_up_and_shutdown_ends_the_job_queued_behind_it() {
    let gate = Gate::new();
    gate.open();
    let config = ServeConfig { workers: Some(1), max_worker_restarts: 1, ..Default::default() };
    let mut server = chaos_server_with(config, gate, sim(80));

    assert!(matches!(kill(&server, 0), ServeError::Panicked { .. }));
    wait_until("the first death to restart the slot", || {
        server.metrics().health.workers_restarted == 1
    });
    assert_eq!(server.live_worker_count(), 1, "the replacement took the slot");
    assert!(matches!(kill(&server, 1), ServeError::Panicked { .. }));
    wait_until("the second death to give the slot up", || {
        server.metrics().health.workers_gave_up == 1
    });
    let health = server.metrics().health;
    assert_eq!((health.workers_restarted, health.workers_gave_up, health.live_workers), (1, 1, 0));

    let queued = server
        .submit(SubmitRequest::new("slow").input("text", Data::Str("nobody runs me".into())))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(queued.status(), JobStatus::Queued, "no worker is left to take it");
    server.shutdown();
    assert!(matches!(queued.wait(), Err(ServeError::ShuttingDown)));
    let snap = server.metrics();
    assert_eq!((snap.panicked, snap.failed, snap.health.workers_restarted), (2, 1, 1));
    assert_eq!(snap.accepted, snap.finished());
}

/// The budget bounds deaths in a row: a worker that survives a job starts
/// its slot's count over, so a one-restart slot outlives kills that a
/// completed job separates, and gives up on the first two in a row.
#[test]
fn a_survived_job_starts_the_restart_budget_over() {
    let gate = Gate::new();
    gate.open();
    let config = ServeConfig { workers: Some(1), max_worker_restarts: 1, ..Default::default() };
    let server = chaos_server_with(config, gate, sim(82));
    for round in 1..=3 {
        assert!(matches!(kill(&server, round), ServeError::Panicked { .. }));
        wait_until("the death to restart the slot", || {
            server.metrics().health.workers_restarted == round as u64
        });
        let survived = SubmitRequest::new("summ").input("text", Data::Str(format!("doc {round}")));
        assert!(server.run(survived).is_ok(), "round {round}: the replacement serves");
    }
    assert!(matches!(kill(&server, 4), ServeError::Panicked { .. }));
    assert!(matches!(kill(&server, 5), ServeError::Panicked { .. }));
    wait_until("two deaths in a row to give the slot up", || {
        server.metrics().health.workers_gave_up == 1
    });
    let health = server.metrics().health;
    assert_eq!((health.workers_restarted, health.live_workers), (4, 0));
}

/// A worker killed while `shutdown` runs starts no replacement, and
/// `shutdown` returns only once every thread the server ever started has
/// exited, a replacement included: dropping the server then leaves the test
/// the only holder of the shared service. Shorter delays race the death
/// against the shutdown latch, so a replacement may start first; a longer
/// one kills the worker while `shutdown` waits to join it.
#[test]
fn a_worker_killed_during_shutdown_starts_no_replacement_and_every_thread_is_joined() {
    for delay_ms in [0, 1, 2, 50] {
        let gate = Gate::new();
        let llm = sim(81);
        let server = chaos_server(2, Arc::clone(&gate), Arc::clone(&llm));
        let compiler = chaos_compiler(Arc::clone(&gate));
        server
            .register_dsl(
                "doomed",
                r#"pipeline doomed { held = gate(text); out = kill(held); }"#,
                &compiler,
            )
            .unwrap();
        let doomed = server
            .submit(
                SubmitRequest::new("doomed").input("text", Data::Str("held, then killed".into())),
            )
            .unwrap();
        wait_until("the doomed job to run", || doomed.status() == JobStatus::Running);
        let (started, shutting_down) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            let mut server = server;
            started.send(()).unwrap();
            server.shutdown();
            server
        });
        shutting_down.recv().unwrap();
        std::thread::sleep(Duration::from_millis(delay_ms));
        gate.open();
        let server = stopper.join().unwrap();
        assert!(matches!(doomed.wait(), Err(ServeError::Panicked { .. })));
        let health = server.metrics().health;
        assert_eq!(health.live_workers, 0, "delay {delay_ms} ms: every worker was joined");
        if delay_ms >= 50 {
            assert_eq!(health.workers_restarted, 0, "no replacement once shutdown has begun");
        }
        drop(server);
        assert_eq!(Arc::strong_count(&llm), 1, "delay {delay_ms} ms: a thread outlived shutdown");
    }
}

#[test]
fn a_deadlined_job_over_a_slow_module_fails_in_bounded_time() {
    let gate = Gate::new();
    gate.open();
    let server = chaos_server(1, gate, sim(73));

    // 50 ms deadline over a ~60 ms module: the op itself cannot be
    // interrupted, but the executor's next cooperative check-in fires.
    let started = Instant::now();
    let handle = server
        .submit(
            SubmitRequest::new("slow")
                .input("text", Data::Str("too slow".into()))
                .timeout(Duration::from_millis(50)),
        )
        .unwrap();
    let err = handle.wait().unwrap_err();
    let waited = started.elapsed();
    assert!(
        matches!(err, ServeError::DeadlineExceeded { elapsed } if elapsed >= Duration::from_millis(50)),
        "expected DeadlineExceeded past the budget, got {err:?}"
    );
    assert!(waited < Duration::from_secs(5), "bounded: returned in {waited:?}");
    let snap = server.metrics();
    assert_eq!(snap.deadline_exceeded, 1);
    assert_eq!(snap.completed, 0);
}

#[test]
fn cancellation_is_honoured_queued_and_mid_execution() {
    let gate = Gate::new();
    let server = chaos_server(1, Arc::clone(&gate), sim(74));

    let running = server
        .submit(SubmitRequest::new("hold").input("text", Data::Str("held at the gate".into())))
        .unwrap();
    wait_until("worker to pick up the held job", || running.status() == JobStatus::Running);
    let queued = server
        .submit(SubmitRequest::new("summ").input("text", Data::Str("never runs".into())))
        .unwrap();

    // Cancel both: the queued job dies at dequeue without executing; the
    // running one stops at the executor's next check-in once the gate opens.
    queued.cancel();
    running.cancel();
    gate.open();
    assert!(matches!(running.wait(), Err(ServeError::Cancelled)));
    assert!(matches!(queued.wait(), Err(ServeError::Cancelled)));

    let snap = server.metrics();
    assert_eq!(snap.cancelled, 2);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.llm.calls, 0, "nothing billed to completed jobs");
    assert_eq!(snap.accepted, snap.finished());
}

#[test]
fn a_health_read_flags_a_stuck_job_once() {
    let gate = Gate::new();
    let server = {
        let llm = sim(75);
        let server = PipelineServer::start(
            ContextFactory::new(llm),
            ServeConfig { workers: Some(1), ..Default::default() },
        )
        .unwrap();
        let compiler = chaos_compiler(Arc::clone(&gate));
        server.register_dsl("hold", r#"pipeline hold { out = gate(text); }"#, &compiler).unwrap();
        server
    };

    // A 10 ms budget over a module wedged on the latch: once it has run 4×
    // the budget with no heartbeat progress, reading health flags it.
    let handle = server
        .submit(
            SubmitRequest::new("hold")
                .input("text", Data::Str("wedged".into()))
                .timeout(Duration::from_millis(10)),
        )
        .unwrap();
    wait_until("a health read to flag the wedged job", || server.metrics().health.stuck_jobs >= 1);
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(server.metrics().health.stuck_jobs, 1, "a later read flags it no more");

    // Nothing can kill a wedged thread, but once the module returns the
    // executor's next check-in sees the deadline, which passed long ago: the
    // typed outcome is DeadlineExceeded.
    gate.open();
    assert!(matches!(handle.wait(), Err(ServeError::DeadlineExceeded { .. })));
    let snap = server.metrics();
    assert_eq!(snap.health.stuck_jobs, 1);
    assert_eq!(snap.deadline_exceeded, 1);
}

#[test]
fn script_traps_are_counted_by_kind() {
    let gate = Gate::new();
    gate.open();
    let server = chaos_server(1, gate, sim(76));
    let err = server
        .run(SubmitRequest::new("trap").input("text", Data::Str("burns all fuel".into())))
        .unwrap_err();
    assert!(matches!(err, ServeError::Core(CoreError::Trap { trap: TrapKind::OutOfFuel, .. })));
    let snap = server.metrics();
    assert_eq!(snap.failed, 1, "a trap is a flavor of failure");
    assert_eq!(snap.traps.out_of_fuel, 1);
    assert_eq!(snap.traps.total(), 1);
    assert!(snap.report().contains("traps"));
}

/// The CI chaos job raises this; locally it defaults to the paper-level
/// acceptance bar (20%).
fn fault_rate() -> f64 {
    std::env::var("LINGUA_CHAOS_FAULT_RATE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .filter(|rate| (0.0..=1.0).contains(rate))
        .unwrap_or(0.20)
}

#[test]
fn supervision_guarantees_hold_over_a_faulty_gateway() {
    // A flaky primary (transient faults) with a clean standby underneath the
    // worker pool, while workers are killed and deadlines fire mid-retry.
    let world = WorldSpec::generate(78);
    let flaky = Arc::new(FaultInjector::new(
        "flaky-primary",
        Arc::new(SimLlm::with_seed(&world, 78)),
        FaultPlan::transient(fault_rate(), 901),
    ));
    let standby: Arc<SimLlm> = Arc::new(SimLlm::with_seed(&world, 78));
    let gateway = Arc::new(
        Gateway::builder()
            .backend(flaky)
            .backend(Arc::new(ServiceTransport::new("standby", standby)))
            .build(),
    );
    let server = PipelineServer::start(
        ContextFactory::new(Arc::clone(&gateway) as Arc<dyn LlmService>),
        ServeConfig {
            workers: Some(4),
            result_cache_capacity: 0,
            queue_capacity: 64,
            ..Default::default()
        },
    )
    .unwrap();
    server.attach_gateway(Arc::clone(&gateway));
    let gate = Gate::new();
    gate.open();
    let compiler = chaos_compiler(gate);
    server.register_dsl("kill", r#"pipeline kill { out = kill(text); }"#, &compiler).unwrap();
    server.register_dsl("slow", r#"pipeline slow { out = snooze(text); }"#, &compiler).unwrap();
    server
        .register_dsl(
            "summ",
            r#"pipeline summ {
                out = summarize(text) using llm with { desc: "summarize the following document" };
            }"#,
            &compiler,
        )
        .unwrap();

    let kills: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(SubmitRequest::new("kill").input("text", Data::Str(format!("kill {i}"))))
                .unwrap()
        })
        .collect();
    let summs: Vec<_> = (0..16)
        .map(|i| {
            server
                .submit(
                    SubmitRequest::new("summ").input("text", Data::Str(format!("flaky doc {i}"))),
                )
                .unwrap()
        })
        .collect();
    let slows: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(
                    SubmitRequest::new("slow")
                        .input("text", Data::Str(format!("deadlined {i}")))
                        .timeout(Duration::from_millis(30)),
                )
                .unwrap()
        })
        .collect();

    for kill in &kills {
        assert!(matches!(kill.wait(), Err(ServeError::Panicked { .. })));
    }
    for summ in &summs {
        assert!(summ.wait().is_ok(), "gateway retries/failover absorb the injected faults");
    }
    for slow in &slows {
        // Depending on queue position the 30 ms budget dies waiting or
        // running; either way the outcome is typed and prompt.
        assert!(matches!(
            slow.wait(),
            Err(ServeError::DeadlineExceeded { .. } | ServeError::Timeout { .. })
        ));
    }

    wait_until("every killed worker to restart", || server.metrics().health.workers_restarted == 4);
    let snap = server.metrics();
    assert_eq!(snap.health.live_workers, 4, "pool restored over the faulty gateway");
    assert_eq!(snap.completed, 16);
    assert_eq!(snap.panicked, 4);
    assert_eq!(snap.failed, 0, "no injected fault may surface as a job failure");
    assert_eq!(snap.accepted, snap.finished());
    assert!(!snap.health.breaker_states.is_empty(), "breaker states fold into the health snapshot");
    assert!(snap.gateway.is_some());
}

#[test]
fn conservation_holds_under_contended_chaos() {
    let gate = Gate::new();
    gate.open();
    let llm = sim(77);
    let server = Arc::new(chaos_server(4, gate, Arc::clone(&llm)));
    let billed_before = llm.usage();

    // 8 submitter threads × 12 jobs, round-robin over completing, panicking,
    // trapping, cancelled, and deadline-exceeding work — all while workers
    // are being killed and resurrected.
    let handles: Vec<_> = (0..8)
        .map(|thread| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for i in 0..12 {
                    let text = Data::Str(format!("thread {thread} doc {i}"));
                    let request = match i % 6 {
                        0 | 1 => SubmitRequest::new("summ").input("text", text),
                        2 => SubmitRequest::new("boom").input("text", text),
                        3 => SubmitRequest::new("trap").input("text", text),
                        4 => SubmitRequest::new("kill").input("text", text),
                        _ => SubmitRequest::new("slow")
                            .input("text", text)
                            .timeout(Duration::from_millis(30)),
                    };
                    match server.submit(request) {
                        Ok(handle) => {
                            if i % 7 == 0 {
                                handle.cancel();
                            }
                            outcomes.push(handle);
                        }
                        Err(ServeError::Full { .. }) => {}
                        Err(other) => panic!("unexpected submit error: {other:?}"),
                    }
                }
                // Every handle resolves: no waiter hangs, whatever happened
                // to the worker that picked the job up.
                for handle in &outcomes {
                    let _ = handle.wait();
                }
                outcomes.len() as u64
            })
        })
        .collect();
    let submitted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(submitted > 0);

    let snap = server.metrics();
    // Conservation: every admitted job reached exactly one terminal state
    // (dedup is off, and every waiter returned, so nothing is in flight).
    assert_eq!(snap.accepted, submitted);
    assert_eq!(snap.deduped(), 0);
    assert_eq!(
        snap.accepted,
        snap.finished(),
        "lost jobs under chaos: {} accepted vs {} finished\n{}",
        snap.accepted,
        snap.finished(),
        snap.report()
    );
    assert!(snap.panicked >= 8, "the kill lane panicked on every run");
    assert!(snap.traps.out_of_fuel >= 8, "the trap lane trapped on every run");
    assert!(snap.completed >= 1);

    // Billing reconciles to the token: what the shared service metered is
    // exactly what completed jobs plus unfinished jobs were billed.
    let mut attributed = snap.llm;
    attributed.merge(&snap.llm_partial);
    assert_eq!(llm.usage().since(&billed_before), attributed);

    // And the pool is back at full strength for the next wave, at the
    // default budget, once the last restarts are done: a dying worker
    // restarts its slot only after its job is settled and its waiter woken.
    // Two kills per thread, none refused, cancelled or timed out.
    wait_until("every kill to restart its slot", || {
        server.metrics().health.workers_restarted == 16
    });
    let health = server.metrics().health;
    assert_eq!((health.live_workers, health.workers_gave_up), (4, 0), "the pool is restored");
}
