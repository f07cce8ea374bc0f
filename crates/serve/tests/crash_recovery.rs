//! Crash-injection matrix for the serve layer: kill the simulated process
//! at every journal kill point, recover from whatever bytes survived, and
//! prove the recovered server converges to the exact outputs and LLM bill
//! of a run that never crashed.
//!
//! The crash model is crash-stop: once the injector fires, every journal
//! write is silently dropped (the "process" is dead — nothing it does
//! afterwards is observable), and recovery sees only the durable prefix.
//! Determinism comes from `SimLlm` — re-executing a lost job bills exactly
//! what the first execution billed — so the ledger reconciliation holds to
//! the cent, not approximately.

mod support;

use lingua_core::modules::{CustomModule, Module};
use lingua_core::{Compiler, ContextFactory, Data};
use lingua_dataset::world::WorldSpec;
use lingua_durable::{
    CrashInjector, Journal, JournalReader, JournalRecord, JournalTuning, KillPoint, SimStorage,
    Storage,
};
use lingua_gateway::{Gateway, ServiceTransport};
use lingua_llm_sim::{LlmService, SimLlm, SimLlmConfig, TokenPricing};
use lingua_ml::sync::{Condvar, Mutex};
use lingua_serve::{
    fingerprint_inputs, BatchTuning, JobHandle, PipelineServer, ServeConfig, ServeError,
    SubmitRequest,
};
use lingua_trace::{ring_tracer, SpanKind, TraceTree, TracedLlm};
use std::io;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use support::FailNextAppend;

const SEED: u64 = 77;
const CHECKPOINT_INTERVAL: usize = 8;

const CURATE: &str = r#"pipeline curate {
    out = summarize(text) using llm with { desc: "summarize the following document" };
}"#;

fn server_with(journal: JournalTuning) -> (PipelineServer, Arc<SimLlm>) {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(
        ContextFactory::new(llm.clone()),
        ServeConfig { workers: Some(2), journal: Some(journal), ..Default::default() },
    )
    .expect("server starts");
    server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
    (server, llm)
}

/// Distinct per-job inputs, so every job has its own fingerprint and its
/// own (deterministic) LLM bill.
fn request(i: usize) -> SubmitRequest {
    SubmitRequest::new("curate")
        .input("text", Data::Str(format!("brewery field report #{i}, batch {}", i * 31 % 7)))
}

/// Recovery after a crash at any kill point, at several occurrences, must
/// reproduce the uninterrupted run record-for-record — and the restored
/// ledger plus the replayed executions must bill exactly what the
/// uninterrupted run billed.
#[test]
fn recovery_matches_uninterrupted_at_every_kill_point() {
    const JOBS: usize = 12;

    // Reference: the run that never crashes.
    let (server, llm) = server_with(
        JournalTuning::sim(SimStorage::new()).with_checkpoint_interval(CHECKPOINT_INTERVAL),
    );
    let reference: Vec<String> =
        (0..JOBS).map(|i| server.run(request(i)).unwrap().get("out").unwrap().render()).collect();
    let reference_usage = llm.usage();
    assert!(reference_usage.calls > 0, "the workload must actually bill the LLM");
    // The checkpoint rows must crash a compaction the run itself triggered,
    // not only the one shutdown forces.
    let fired = server.journal().expect("journal attached").injector().counts();
    assert!(fired.contains_key(&KillPoint::AfterCheckpoint), "no compaction in {JOBS} jobs");
    drop(server);

    for point in KillPoint::ALL {
        for occurrence in [1u64, 5, 11] {
            // Run 1: dies at the armed kill point (or survives if the point
            // never fires that often — recovery must be a no-op then).
            let storage = SimStorage::new();
            let injector = CrashInjector::armed_at(point, occurrence);
            let tuning = JournalTuning::sim(storage.clone())
                .with_checkpoint_interval(CHECKPOINT_INTERVAL)
                .with_injector(injector.clone());
            let (server, _run1_llm) = server_with(tuning);
            for i in 0..JOBS {
                server.run(request(i)).unwrap();
                if server.journal().expect("journal attached").dead() {
                    break;
                }
            }
            // No clean shutdown: the process is gone. Only `storage` survives.
            drop(server);
            // Every point the serve path can reach must be reached at least
            // once, or its rows pass vacuously as "nothing happened".
            // `MidReport` is the stream engine's (see `stream_recovery`).
            if occurrence == 1 && point != KillPoint::MidReport {
                assert_eq!(
                    injector.counts().get(&point),
                    Some(&1),
                    "{}@1 never fired: raise JOBS until the journal reaches it",
                    point.as_str()
                );
            }

            // Run 2: recover from the surviving bytes and retry the whole
            // workload (the client's crash story: resubmit everything).
            let (server, llm) = server_with(
                JournalTuning::sim(storage).with_checkpoint_interval(CHECKPOINT_INTERVAL),
            );
            let label = format!("{}@{occurrence}", point.as_str());
            let snapshot = server.metrics().recovery.expect("journal surfaces recovery");
            assert!(
                snapshot.corrupt_records_skipped <= 1,
                "{label}: at most the torn tail record is lost, got {}",
                snapshot.corrupt_records_skipped
            );
            let resumed = server.resume_recovered().expect("resume");
            let snapshot = server.metrics().recovery.expect("recovery snapshot");
            assert_eq!(
                snapshot.resumed_jobs + snapshot.skipped_duplicates,
                resumed.len() as u64 + snapshot.skipped_duplicates,
                "{label}: resumption counters track the resubmissions"
            );
            for handle in resumed {
                handle.wait().unwrap_or_else(|err| panic!("{label}: resumed job failed: {err}"));
            }
            let outputs: Vec<String> = (0..JOBS)
                .map(|i| server.run(request(i)).unwrap().get("out").unwrap().render())
                .collect();
            assert_eq!(outputs, reference, "{label}: outputs diverge from the uninterrupted run");
            // Ledger reconciliation: restored (journaled) + replayed
            // (re-executed) == uninterrupted, field for field.
            let recovered_usage = llm.usage();
            assert_eq!(
                recovered_usage, reference_usage,
                "{label}: recovered + replayed bill must equal the uninterrupted bill"
            );
            let pricing = TokenPricing::default();
            assert!(
                (recovered_usage.cost_usd(&pricing) - reference_usage.cost_usd(&pricing)).abs()
                    < 1e-12,
                "{label}: ledger reconciles to the cent"
            );
        }
    }
}

/// A server without a journal surfaces no recovery snapshot; a fresh journal
/// surfaces an empty one.
#[test]
fn recovery_snapshot_surfaces_only_with_a_journal() {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(ContextFactory::new(llm), ServeConfig::default()).unwrap();
    assert!(server.metrics().recovery.is_none());
    drop(server);

    let (server, _llm) = server_with(JournalTuning::sim(SimStorage::new()));
    let snapshot = server.metrics().recovery.expect("fresh journal still reports");
    assert_eq!(snapshot.replayed, 0);
    assert_eq!(snapshot.corrupt_records_skipped, 0);
    let report = server.metrics().report();
    assert!(report.contains("recovery"), "operator report carries the recovery line:\n{report}");
}

/// Shutdown under load: jobs still queued when the pool can no longer run
/// them fail with typed [`ServeError::ShuttingDown`] — never silently
/// dropped — and stay journaled as pending so the next incarnation
/// resurrects them.
#[test]
fn shutdown_fails_queued_jobs_typed_and_keeps_them_journaled() {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let storage = SimStorage::new();
    let mut server = PipelineServer::start(
        ContextFactory::new(llm),
        ServeConfig {
            workers: Some(1),
            max_worker_restarts: 0,
            journal: Some(JournalTuning::sim(storage.clone())),
            ..Default::default()
        },
    )
    .unwrap();
    let mut compiler = Compiler::with_builtins();
    compiler.register("boom", |_op, _ctx| {
        Ok(Box::new(lingua_core::modules::CustomModule::stateless("boom", |_, _| {
            // Escapes catch_unwind containment: kills the worker thread, not
            // just the job — the only way to leave jobs truly unrunnable.
            std::panic::panic_any(lingua_serve::EscapePanic)
        })) as Box<dyn lingua_core::modules::Module>)
    });
    server.register_dsl("explode", "pipeline explode { out = boom(text); }", &compiler).unwrap();

    // Kill the only worker (restart budget 0), then queue jobs nobody can run.
    let crash = server
        .submit(SubmitRequest::new("explode").input("text", Data::Str("first".into())))
        .unwrap();
    assert!(matches!(crash.wait(), Err(ServeError::Panicked { .. })));
    let queued: Vec<_> = (0..2)
        .map(|i| {
            server
                .submit(
                    SubmitRequest::new("explode").input("text", Data::Str(format!("queued {i}"))),
                )
                .unwrap()
        })
        .collect();

    server.shutdown();
    for handle in &queued {
        assert!(
            matches!(handle.wait(), Err(ServeError::ShuttingDown)),
            "queued jobs fail typed, not silently dropped"
        );
    }
    drop(server);

    // The drained jobs were deliberately NOT journaled as failed: a new
    // incarnation sees them pending and can resurrect them.
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(
        ContextFactory::new(llm),
        ServeConfig { journal: Some(JournalTuning::sim(storage)), ..Default::default() },
    )
    .unwrap();
    // Clean shutdown compacts the log into one checkpoint frame, so the
    // drained jobs ride inside the checkpoint rather than as replayed tail
    // records — `replayed` only counts the tail.
    let snapshot = server.metrics().recovery.expect("recovery snapshot");
    assert_eq!(snapshot.corrupt_records_skipped, 0, "clean shutdown leaves no torn tail");
    // Two queued jobs (never run) plus the panicked job's failure record:
    // only the two drained ones come back pending.
    let resumed = server.resume_recovered().expect("resume");
    assert_eq!(resumed.len(), 0, "pipeline not registered yet: jobs stay stranded, not lost");
    server
        .register_dsl(
            "explode",
            "pipeline explode { out = clean(text) using llm with { desc: \"clean\" }; }",
            &Compiler::with_builtins(),
        )
        .unwrap();
    let resumed = server.resume_recovered().expect("resume again");
    assert_eq!(resumed.len(), 2, "both drained jobs resurrect once the pipeline exists");
    for handle in resumed {
        handle.wait().expect("resurrected jobs run to completion");
    }
}

/// A storage error while resuming is transient, not terminal: the call
/// reports it, and every job it did not resume — the refused one included —
/// is still pending for the next call.
#[test]
fn resume_after_a_storage_error_loses_no_recovered_job() {
    const JOBS: usize = 4;
    // A crashed incarnation's log: four jobs accepted, none finished.
    let log = SimStorage::new();
    let (journal, _) = Journal::open(JournalTuning::sim(log.clone())).expect("fresh log opens");
    for i in 0..JOBS {
        let inputs = request(i).inputs;
        journal.record_job_accepted("curate", fingerprint_inputs(&inputs), &inputs).unwrap();
    }
    drop(journal);

    let storage = FailNextAppend::over(log);
    let (server, _llm) = server_with(JournalTuning::over(storage.clone()));
    storage.arm();
    let err = server.resume_recovered().expect_err("the accept record cannot be journaled");
    assert!(matches!(err, ServeError::Journal { .. }), "got {err:?}");
    assert_eq!(server.recovery().expect("journaled server").resumed_jobs, 0);

    let resumed = server.resume_recovered().expect("the storage error was transient");
    assert_eq!(resumed.len(), JOBS, "every recovered job is resumed, the refused one included");
    for handle in resumed {
        handle.wait().expect("resumed jobs run to completion");
    }
    assert_eq!(server.recovery().expect("journaled server").resumed_jobs, JOBS as u64);
    assert!(server.resume_recovered().expect("nothing left").is_empty());
}

/// A `finished` record that fails to append must not fail the job — the
/// waiter gets its output — but it must not vanish either: the journal still
/// holds the job as pending, so the next recovery re-executes and re-bills
/// it. The server counts the lost append and marks it on the job's span.
#[test]
fn a_lost_finished_append_is_counted_and_the_job_still_answers() {
    let log = SimStorage::new();
    let storage = FailNextAppend::over(log.clone());
    let world = WorldSpec::generate(SEED);
    let (tracer, sink) = ring_tracer(1 << 10);
    let server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, SEED))).with_tracer(tracer),
        ServeConfig {
            workers: Some(1),
            journal: Some(JournalTuning::over(storage.clone())),
            ..Default::default()
        },
    )
    .expect("server starts");
    // `arm` runs inside the job — after its `accepted` record, before its
    // `finished` — so the append it fails is exactly that one.
    let mut compiler = Compiler::with_builtins();
    let armed = Arc::clone(&storage);
    compiler.register("arm", move |_op, _ctx| {
        let storage = Arc::clone(&armed);
        Ok(Box::new(CustomModule::stateless("arm", move |input, _| {
            storage.arm();
            Ok(input)
        })) as Box<dyn Module>)
    });
    const ARMED: &str = r#"pipeline armed {
        held = arm(text);
        out = summarize(held) using llm with { desc: "summarize the following document" };
    }"#;
    server.register_dsl("armed", ARMED, &compiler).expect("register");

    let output = server
        .run(SubmitRequest::new("armed").input("text", Data::Str("brewery field report".into())))
        .expect("the job's result stands without its journal record");
    assert!(!output.get("out").expect("out is bound").render().is_empty());

    let metrics = server.metrics();
    assert_eq!(metrics.journal_append_errors, 1);
    assert_eq!((metrics.accepted, metrics.completed), (1, 1));
    assert_eq!(metrics.accepted, metrics.finished() + metrics.deduped(), "accepted == Σ terminals");
    drop(server);

    let tree = TraceTree::build(&sink.events()).expect("the mark lands on a span that is open");
    let jobs = tree.spans_of_kind(SpanKind::ServeJob);
    let marks: Vec<_> = jobs
        .iter()
        .flat_map(|job| &job.instants)
        .filter(|i| i.name == "journal_append_failed")
        .collect();
    assert_eq!(marks.len(), 1, "{jobs:?}");
    assert_eq!(marks[0].attrs.get("record").map(String::as_str), Some("finished"));

    // What the counter warns of: the next incarnation finds the job pending.
    let (_journal, recovered) = Journal::open(JournalTuning::sim(log)).expect("the log reopens");
    assert_eq!(recovered.pending.len(), 1, "the answered job comes back to be run again");
}

/// After a clean shutdown the journal holds the ledger's bill: the
/// `cumulative` the next incarnation's `Journal::open` reads equals what
/// `llm` billed, on every `Usage` field — however the completions were
/// grouped or served.
fn assert_journaled_bill_is_the_ledger(storage: Arc<SimStorage>, llm: &SimLlm) {
    let (_journal, recovered) = Journal::open(JournalTuning::sim(storage)).expect("log reopens");
    assert_eq!(recovered.cumulative, llm.usage(), "journaled bill != ledger");
}

/// A journaled server batched over a fresh simulator of its own.
fn batched_server(storage: &Arc<SimStorage>) -> (PipelineServer, Arc<SimLlm>) {
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::with_seed(&world, SEED));
    let server = PipelineServer::start(
        ContextFactory::new(llm.clone()),
        ServeConfig {
            workers: Some(4),
            batch: Some(BatchTuning { max_batch_size: 8, max_wait: Duration::from_millis(20) }),
            journal: Some(JournalTuning::sim(storage.clone())),
            ..Default::default()
        },
    )
    .expect("server starts");
    server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
    (server, llm)
}

/// Thirty-two concurrent one-completion jobs through a batcher over a bare
/// simulator: each member is one model call with its own split, so the jobs
/// meter, and the journal keeps, what the ledger billed — and the next
/// incarnation, batched too, restores that bill into its ledger.
#[test]
fn a_batched_servers_journaled_bill_is_its_ledger() {
    const JOBS: usize = 32;
    let storage = SimStorage::new();
    let (server, llm) = batched_server(&storage);
    let handles: Vec<_> = (0..JOBS).map(|i| server.submit(request(i)).unwrap()).collect();
    for handle in handles {
        handle.wait().expect("job runs");
    }
    let batch = server.metrics().batch.expect("batched server surfaces batch counters");
    assert!(batch.batches < JOBS as u64, "some flush carried more than one member");
    drop(server);
    assert_journaled_bill_is_the_ledger(storage.clone(), &llm);
    let (_server, restored) = batched_server(&storage);
    assert_eq!(restored.usage(), llm.usage(), "the batcher passes the restored bill down");
}

/// Eight jobs that share one prompt over a caching simulator: one is
/// billed, seven are answered from the cache, and the journal books those
/// seven as saved, as the ledger does, rather than at list price.
#[test]
fn a_cache_served_jobs_journaled_bill_is_its_ledger() {
    const JOBS: usize = 8;
    let world = WorldSpec::generate(SEED);
    let llm = Arc::new(SimLlm::new(
        &world,
        SimLlmConfig { seed: SEED, cache_enabled: true, ..Default::default() },
    ));
    let storage = SimStorage::new();
    let server = PipelineServer::start(
        ContextFactory::new(llm.clone()),
        ServeConfig {
            workers: Some(1),
            result_cache_capacity: 0,
            journal: Some(JournalTuning::sim(storage.clone())),
            ..Default::default()
        },
    )
    .expect("server starts");
    server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
    for _ in 0..JOBS {
        server.run(request(0)).expect("job runs");
    }
    let ledger = llm.usage();
    assert_eq!((ledger.calls, ledger.cached_calls), (1, JOBS as u64 - 1));
    drop(server);
    assert_journaled_bill_is_the_ledger(storage, &llm);
}

/// A journaled server over a gateway whose one backend is a simulator: the
/// journal keeps what the gateway billed, and the next incarnation — a fresh
/// gateway over a fresh simulator, behind a tracing wrapper — restores that
/// bill into the gateway's usage, on every `Usage` field.
#[test]
fn a_gateway_restores_the_journaled_bill() {
    const JOBS: usize = 6;
    let world = WorldSpec::generate(SEED);
    let storage = SimStorage::new();
    let gateway_over_sim = || {
        let llm: Arc<dyn LlmService> = Arc::new(SimLlm::with_seed(&world, SEED));
        Arc::new(Gateway::over(Arc::new(ServiceTransport::new("sim", llm))))
    };
    let start = |llm: Arc<dyn LlmService>| {
        let server = PipelineServer::start(
            ContextFactory::new(llm),
            ServeConfig {
                workers: Some(2),
                journal: Some(JournalTuning::sim(storage.clone())),
                ..Default::default()
            },
        )
        .expect("server starts");
        server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
        server
    };

    let first = gateway_over_sim();
    let server = start(first.clone());
    for i in 0..JOBS {
        server.run(request(i)).expect("job runs");
    }
    drop(server);
    let billed = first.usage();
    assert_eq!(billed.calls, JOBS as u64, "one completion per job");
    let (journal, recovered) = Journal::open(JournalTuning::sim(storage.clone())).expect("reopens");
    drop(journal);
    assert_eq!(recovered.cumulative, billed, "journaled bill != the gateway's usage");

    let second = gateway_over_sim();
    let (tracer, _sink) = ring_tracer(1 << 10);
    let _server = start(TracedLlm::wrap(&tracer, second.clone()));
    assert_eq!(second.usage(), recovered.cumulative, "the restored bill is the gateway's usage");
}

/// The records a log holds, by kind, in log order.
fn record_kinds(storage: &SimStorage) -> Vec<&'static str> {
    let records = JournalReader::scan(&storage.snapshot()).records;
    let kind = |record: &JournalRecord| match record {
        JournalRecord::JobAccepted(_) => "accepted",
        JournalRecord::JobStarted { .. } => "started",
        JournalRecord::JobFinished(_) => "finished",
        JournalRecord::JobFailed { .. } => "failed",
        _ => "other",
    };
    records.iter().map(kind).collect()
}

/// A journaled job appends two records, its accept and its ending. Recovery
/// treats a started job exactly like a queued one, so a `started` record
/// would buy nothing, and serve writes none.
#[test]
fn a_journaled_job_appends_its_accept_and_its_ending_only() {
    let storage = SimStorage::new();
    let (server, _llm) = server_with(JournalTuning::sim(storage.clone()));
    for i in 0..3 {
        server.run(request(i)).unwrap();
    }
    assert_eq!(record_kinds(&storage), ["accepted", "finished"].repeat(3));
}

/// Sim storage that parks the next append, once armed, until the test lets
/// it through or fails it.
struct ParkNextAppend {
    inner: Arc<SimStorage>,
    state: Mutex<Park>,
    changed: Condvar,
}

#[derive(Clone, Copy, PartialEq)]
enum Park {
    Off,
    Armed,
    Parked,
    Released { fail: bool },
}

impl ParkNextAppend {
    fn over(inner: Arc<SimStorage>) -> Arc<ParkNextAppend> {
        Arc::new(ParkNextAppend { inner, state: Mutex::new(Park::Off), changed: Condvar::new() })
    }

    fn arm(&self) {
        *self.state.lock() = Park::Armed;
    }

    fn wait_parked(&self) {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut state = self.state.lock();
        while *state != Park::Parked {
            let (next, timed_out) = self.changed.wait_until(state, deadline);
            assert!(!timed_out, "no append reached the park");
            state = next;
        }
    }

    fn release(&self, fail: bool) {
        *self.state.lock() = Park::Released { fail };
        self.changed.notify_all();
    }
}

impl Storage for ParkNextAppend {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        if *state == Park::Armed {
            *state = Park::Parked;
            self.changed.notify_all();
            while *state == Park::Parked {
                state = self.changed.wait(state);
            }
            if *state == (Park::Released { fail: true }) {
                *state = Park::Off;
                return Err(io::Error::other("injected append failure"));
            }
            *state = Park::Off;
        }
        drop(state);
        self.inner.append(bytes)
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        self.inner.read()
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.replace(bytes)
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Submit a leader whose accept parks inside its append, then a duplicate
/// of it, then let the accept through (`fail == false`) or fail it. The
/// duplicate must be answered while the accept is still parked: it attaches
/// to the leader and journals nothing. Returns the server, the log, the
/// leader's submission and the follower's handle.
fn follow_a_parked_accept(
    fail: bool,
) -> (PipelineServer, Arc<SimStorage>, Result<JobHandle, ServeError>, JobHandle) {
    let log = SimStorage::new();
    let storage = ParkNextAppend::over(log.clone());
    let (server, _llm) = server_with(JournalTuning::over(storage.clone()));
    storage.arm();
    let (leader, follower) = thread::scope(|scope| {
        let leader = scope.spawn(|| server.submit(request(0)));
        storage.wait_parked();
        let (sent, follower) = mpsc::channel();
        let server = &server;
        scope.spawn(move || sent.send(server.submit(request(0))).unwrap());
        let follower = follower.recv_timeout(Duration::from_secs(10));
        storage.release(fail);
        (leader.join().unwrap(), follower)
    });
    let follower = follower
        .expect("the follower was answered while its leader's accept was parked")
        .expect("the follower attaches to its leader");
    (server, log, leader, follower)
}

/// A follower submitted while its leader's accept is being journaled gets
/// the leader's output, and the log holds the leader's two records only.
#[test]
fn a_follower_of_an_accept_in_flight_journals_nothing_and_shares_the_output() {
    let (server, log, leader, follower) = follow_a_parked_accept(false);
    let output = leader.expect("the accept went through").wait().unwrap();
    assert!(Arc::ptr_eq(&output, &follower.wait().unwrap()), "one execution, one output");
    assert_eq!(record_kinds(&log), ["accepted", "finished"]);
    let metrics = server.metrics();
    assert_eq!((metrics.accepted, metrics.coalesced, metrics.completed), (2, 1, 1));
}

/// When the journal refuses the leader's accept, the follower that attached
/// meanwhile gets the same typed refusal; the key's reservation is released,
/// so the next submission runs.
#[test]
fn a_follower_of_a_refused_accept_gets_the_typed_refusal() {
    let (server, log, leader, follower) = follow_a_parked_accept(true);
    let refusal = leader.expect_err("the journal refused the accept");
    assert!(matches!(refusal, ServeError::Journal { .. }), "got {refusal:?}");
    assert_eq!(follower.wait().unwrap_err(), refusal);
    assert!(record_kinds(&log).is_empty(), "neither submission is journaled");
    let metrics = server.metrics();
    assert_eq!((metrics.journal_refused, metrics.coalesced), (1, 1));

    server.run(request(0)).expect("the refused key is free again");
    assert_eq!(record_kinds(&log), ["accepted", "finished"]);
}

/// Sim storage whose `replace` always fails, as on a full disk: every
/// append lands, no compaction does.
struct NoRoomToCompact(Arc<SimStorage>);

impl Storage for NoRoomToCompact {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.0.append(bytes)
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        self.0.read()
    }

    fn replace(&self, _bytes: &[u8]) -> io::Result<()> {
        Err(io::Error::other("disk full"))
    }

    fn flush(&self) -> io::Result<()> {
        self.0.flush()
    }
}

/// A compaction that fails after a job's accept was written does not
/// refuse the job: the caller gets its answer, and the reopened log holds
/// it finished, not pending for the next incarnation to run and bill again.
/// With a checkpoint interval of 1, every append's compaction fails.
#[test]
fn a_failed_compaction_refuses_no_job_the_log_holds() {
    const JOBS: usize = 3;
    let log = SimStorage::new();
    let storage = Arc::new(NoRoomToCompact(log.clone()));
    let (server, _llm) = server_with(JournalTuning::over(storage).with_checkpoint_interval(1));
    for i in 0..JOBS {
        server.run(request(i)).expect("the accept is in the log, so the job runs");
    }
    let metrics = server.metrics();
    assert_eq!((metrics.completed, metrics.journal_refused), (JOBS as u64, 0));
    assert_eq!(metrics.journal_append_errors, 0, "every record was written");
    assert_eq!(metrics.health.journal_compactions_failed, 2 * JOBS as u64);
    let line = format!("{} compaction(s) failed", 2 * JOBS);
    assert!(metrics.report().contains(&line), "{}", metrics.report());
    drop(server);

    assert_eq!(record_kinds(&log), ["accepted", "finished"].repeat(JOBS));
    let (_journal, recovered) = Journal::open(JournalTuning::sim(log)).expect("the log reopens");
    assert!(recovered.pending.is_empty(), "{:?}", recovered.pending);
    assert_eq!(recovered.finished.len(), JOBS);
}

/// A journaled server whose job table holds `cells` cells, over `storage`.
fn server_with_cells(storage: &Arc<SimStorage>, cells: usize) -> PipelineServer {
    let world = WorldSpec::generate(SEED);
    let server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, SEED))),
        ServeConfig {
            workers: Some(1),
            result_cache_capacity: cells,
            journal: Some(JournalTuning::sim(storage.clone())),
            ..Default::default()
        },
    )
    .expect("server starts");
    server.register_dsl("curate", CURATE, &Compiler::with_builtins()).expect("register");
    server
}

/// `skipped_duplicates` counts the hits that a journal-restored output
/// answers, and no other. With one cell, a third job evicts whichever
/// restored output survived the restore, so jobs 0 and 1 each re-execute
/// once and their repeats are hits on the fresh outputs: none is a crash
/// retry the journal answered. With room for every output, a resubmission
/// is one.
#[test]
fn only_a_hit_on_a_restored_output_is_a_skipped_duplicate() {
    let storage = SimStorage::new();
    let server = server_with_cells(&storage, 1);
    for i in 0..2 {
        server.run(request(i)).expect("job runs");
    }
    drop(server);

    let server = server_with_cells(&storage, 1);
    server.run(request(2)).expect("job runs");
    for i in 0..2 {
        for _ in 0..2 {
            server.run(request(i)).expect("job runs");
        }
    }
    let metrics = server.metrics();
    assert_eq!((metrics.completed, metrics.cache_hits), (3, 2));
    assert_eq!(metrics.recovery.expect("journal attached").skipped_duplicates, 0);
    drop(server);

    let server = server_with_cells(&storage, 8);
    server.run(request(0)).expect("job runs");
    let metrics = server.metrics();
    assert_eq!((metrics.completed, metrics.cache_hits), (0, 1));
    assert_eq!(metrics.recovery.expect("journal attached").skipped_duplicates, 1);
}

/// A live job's cell is pinned in the job table, so the journal never holds
/// two live jobs under one key. One worker, one queue slot, `cells` cells:
/// A runs (held), B waits in the queue, a duplicate of A attaches to A and
/// journals nothing, and C is refused `Full`, which journals C's refusal
/// only. A crash at that instant recovers A and B as pending.
fn a_live_jobs_duplicate_journals_nothing(cells: usize) {
    let storage = SimStorage::new();
    let (ticket, tickets) = mpsc::channel::<()>();
    let tickets = Arc::new(Mutex::new(tickets));
    let mut compiler = Compiler::with_builtins();
    compiler.register("hold", move |_op, _ctx| {
        let tickets = Arc::clone(&tickets);
        Ok(Box::new(CustomModule::stateless("hold", move |input, _| {
            // One job through per ticket; all of them once the sender drops.
            let _ = tickets.lock().recv();
            Ok(input)
        })) as Box<dyn Module>)
    });
    let world = WorldSpec::generate(SEED);
    let server = PipelineServer::start(
        ContextFactory::new(Arc::new(SimLlm::with_seed(&world, SEED))),
        ServeConfig {
            workers: Some(1),
            queue_capacity: 1,
            result_cache_capacity: cells,
            journal: Some(JournalTuning::sim(storage.clone())),
            ..Default::default()
        },
    )
    .expect("server starts");
    server.register_dsl("hold", "pipeline hold { out = hold(text); }", &compiler).unwrap();
    // Declared after the server, so a failed assertion drops it first and
    // the held worker lets go before shutdown joins it.
    let ticket = ticket;
    let request = |text: &str| SubmitRequest::new("hold").input("text", Data::Str(text.into()));

    let a = server.submit(request("a")).expect("A is admitted");
    let deadline = Instant::now() + Duration::from_secs(20);
    while a.status() != lingua_serve::JobStatus::Running {
        assert!(Instant::now() < deadline, "timed out waiting for the worker to take A");
        thread::sleep(Duration::from_millis(2));
    }
    let b = server.submit(request("b")).expect("B is queued");
    let follower = server.submit(request("a")).expect("A's duplicate attaches to A");
    assert_eq!(server.submit(request("c")).unwrap_err(), ServeError::Full { capacity: 1 });
    assert_eq!(record_kinds(&storage), ["accepted", "accepted", "accepted", "failed"]);
    let metrics = server.metrics();
    assert_eq!((metrics.accepted, metrics.coalesced, metrics.rejected), (3, 1, 1));

    let image = SimStorage::new();
    image.replace(&storage.snapshot()).unwrap();
    let (_journal, recovered) = Journal::open(JournalTuning::sim(image)).expect("the image opens");
    let mut pending: Vec<u64> = recovered.pending.iter().map(|job| job.fingerprint).collect();
    let mut live: Vec<u64> =
        ["a", "b"].map(|text| fingerprint_inputs(&request(text).inputs)).into();
    pending.sort_unstable();
    live.sort_unstable();
    assert_eq!(pending, live, "the crash image holds A and B pending");

    ticket.send(()).unwrap();
    ticket.send(()).unwrap();
    let output = a.wait().expect("A runs");
    assert!(Arc::ptr_eq(&output, &follower.wait().unwrap()), "the duplicate shares A's output");
    b.wait().expect("B runs");
}

#[test]
fn a_live_jobs_duplicate_journals_nothing_and_a_crash_recovers_it() {
    a_live_jobs_duplicate_journals_nothing(1);
}

/// With no result cache a duplicate still attaches to the live job: were
/// it to run on its own, its refusal would journal `failed` under A's key
/// and the crash image would lose A.
#[test]
fn without_a_result_cache_a_live_jobs_duplicate_still_journals_nothing() {
    a_live_jobs_duplicate_journals_nothing(0);
}
